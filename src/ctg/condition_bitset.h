/// \file condition_bitset.h
/// Fixed-width bitset representation of the condition algebra.
///
/// The DNF algebra in condition.h is the authoritative, arbitrarily
/// sized representation; its conjunction/implication/compatibility
/// checks walk sorted std::vector<Condition> lists and allocate on
/// every operation. On the reschedule hot path (mutual-exclusion
/// computation, path realizability during enumeration, guard-vs-minterm
/// compatibility during stretching) only *boolean predicates* of guards
/// are needed, and those are form-independent — so they can be answered
/// on a compiled representation.
///
/// A ConditionSpace assigns every fork outcome one bit: fork f with k
/// outcomes owns a contiguous k-bit field, fields are packed into
/// ConditionSpace::kWords 64-bit words. A minterm compiles to
///   bits — the chosen outcome bit of every constrained fork;
///   mask — the full field mask of every constrained fork;
/// and the algebra collapses to word ops:
///   compatible(a, b)  <=>  (a.bits & b.mask) == (b.bits & a.mask)
///   a implies b       <=>  b.bits subset-of a.bits
///   conjoin(a, b)      =   {a.bits | b.bits, a.mask | b.mask}
/// A guard compiles to a set of bit minterms; satisfiability tests are
/// loops of the minterm ops with no allocation.
///
/// Graphs whose packed width exceeds kMaxBits — or degenerate inputs
/// (outcome index outside the fork's arity, unknown fork) — do not fit
/// the fixed width; every compile entry point then reports failure so
/// callers fall back to the DNF algebra (ActivationAnalysis records it
/// as an invalid space(); a PathEngine with a metrics registry counts it
/// under "guard.dnf_fallbacks"). Overflow is a supported slow path,
/// never undefined behavior.

#ifndef ACTG_CTG_CONDITION_BITSET_H
#define ACTG_CTG_CONDITION_BITSET_H

#include <array>
#include <cstdint>
#include <cstddef>
#include <vector>

#include "ctg/condition.h"
#include "ctg/ids.h"

namespace actg::ctg {

class ConditionSpace;

/// One compiled minterm: conjunction of "fork = outcome" conditions as
/// packed words. Value-semantic, fixed size, no heap.
struct BitMinterm {
  static constexpr std::size_t kWords = 4;

  std::array<std::uint64_t, kWords> bits{};  ///< chosen outcome bits
  std::array<std::uint64_t, kWords> mask{};  ///< full fields of constrained forks

  /// The constant-true minterm (no fork constrained).
  bool IsTrue() const {
    for (std::uint64_t w : bits) {
      if (w != 0) return false;
    }
    return true;
  }

  /// True when the two minterms can hold simultaneously: every fork
  /// constrained by both is constrained to the same outcome.
  bool CompatibleWith(const BitMinterm& other) const {
    for (std::size_t w = 0; w < kWords; ++w) {
      if ((bits[w] & other.mask[w]) != (other.bits[w] & mask[w])) {
        return false;
      }
    }
    return true;
  }

  /// True when this minterm implies \p other: other's conditions are a
  /// subset of this minterm's conditions.
  bool Implies(const BitMinterm& other) const {
    for (std::size_t w = 0; w < kWords; ++w) {
      if ((other.bits[w] & ~bits[w]) != 0) return false;
    }
    return true;
  }

  /// In-place conjunction. Requires CompatibleWith(other).
  void ConjoinWith(const BitMinterm& other) {
    for (std::size_t w = 0; w < kWords; ++w) {
      bits[w] |= other.bits[w];
      mask[w] |= other.mask[w];
    }
  }

  friend bool operator==(const BitMinterm&, const BitMinterm&) = default;
};

/// Disjunction of bit minterms (the compiled form of a Guard). The
/// empty set is the constant-false guard. Minterm storage is reusable:
/// Clear() keeps capacity, so a guard living in a workspace performs no
/// steady-state allocation.
///
/// The set is kept free of duplicates and absorbed minterms (a & b is
/// dropped when a alone is present), which keeps conjunction products
/// small; it is NOT the canonical form of Guard::Simplify (no
/// complementary merge). Only form-independent predicates — emptiness
/// and satisfiability of conjunctions — are exposed, so the weaker
/// normalization never changes an answer.
class BitGuard {
 public:
  BitGuard() = default;

  bool IsFalse() const { return minterms_.empty(); }
  bool IsTrue() const {
    for (const BitMinterm& m : minterms_) {
      if (m.IsTrue()) return true;
    }
    return false;
  }

  const std::vector<BitMinterm>& minterms() const { return minterms_; }

  /// Resets to the constant-false guard, keeping capacity.
  void Clear() { minterms_.clear(); }

  /// Resets to the constant-true guard.
  void SetTrue() {
    minterms_.clear();
    minterms_.push_back(BitMinterm{});
  }

  /// Adds one disjunct, applying dedup and absorption.
  void AddMinterm(const BitMinterm& m);

  /// Disjunction with another guard.
  void OrWith(const BitGuard& other) {
    for (const BitMinterm& m : other.minterms_) AddMinterm(m);
  }

  /// Conjunction with a single minterm: every incompatible disjunct is
  /// dropped, the rest are extended in place.
  void AndWithMinterm(const BitMinterm& m);

  /// Conjunction with another guard (DNF product). \p scratch provides
  /// reusable storage for the product; its previous content is lost.
  void AndWith(const BitGuard& other, BitGuard& scratch);

  /// True when this guard and \p m can hold simultaneously
  /// (satisfiability of the conjunction; form-independent).
  bool CompatibleWith(const BitMinterm& m) const {
    for (const BitMinterm& a : minterms_) {
      if (a.CompatibleWith(m)) return true;
    }
    return false;
  }

  /// True when the two guards can hold simultaneously.
  bool CompatibleWith(const BitGuard& other) const {
    for (const BitMinterm& a : minterms_) {
      for (const BitMinterm& b : other.minterms_) {
        if (a.CompatibleWith(b)) return true;
      }
    }
    return false;
  }

  /// Syntactic implication check mirroring Guard::Implies: every
  /// disjunct of this guard implies some disjunct of \p other.
  bool Implies(const BitGuard& other) const {
    for (const BitMinterm& a : minterms_) {
      bool covered = false;
      for (const BitMinterm& b : other.minterms_) {
        if (a.Implies(b)) {
          covered = true;
          break;
        }
      }
      if (!covered) return false;
    }
    return true;
  }

  friend bool operator==(const BitGuard&, const BitGuard&) = default;

 private:
  std::vector<BitMinterm> minterms_;
};

/// Bit layout of a set of forks: fork f's outcomes 0..k-1 occupy a
/// contiguous k-bit field. Construction fails (valid() == false) when
/// the packed width exceeds kMaxBits; every compile call then returns
/// false and the caller is expected to fall back to the DNF algebra.
class ConditionSpace {
 public:
  static constexpr std::size_t kWords = BitMinterm::kWords;
  static constexpr std::size_t kMaxBits = kWords * 64;

  /// An invalid (always-fallback) space.
  ConditionSpace() = default;

  /// Layout over \p forks with the given outcome arities (parallel
  /// vectors). Arities < 2 and widths past kMaxBits invalidate the
  /// space instead of producing a partial layout.
  ConditionSpace(const std::vector<TaskId>& forks,
                 const std::vector<int>& arities);

  /// True when every fork fits the fixed width and the bit algebra is
  /// usable; false means callers must use the DNF algebra.
  bool valid() const { return valid_; }

  /// Total packed width in bits (0 when invalid).
  std::size_t bit_count() const { return bit_count_; }

  /// Compiles a single condition. Returns false (and leaves \p out
  /// untouched) for unknown forks or out-of-range outcomes.
  bool Encode(const Condition& c, BitMinterm& out) const;

  /// Compiles a minterm; false on any garbage condition.
  bool Encode(const Minterm& m, BitMinterm& out) const;

  /// Compiles a guard; false when any minterm fails to compile.
  bool Encode(const Guard& g, BitGuard& out) const;

  /// Compiles a full branch assignment into a minterm constraining
  /// every fork of the space to its selected outcome. Forks left
  /// unassigned (outcome < 0) stay unconstrained. Returns false on
  /// out-of-range outcomes.
  bool EncodeAssignment(const BranchAssignment& assignment,
                        BitMinterm& out) const;

 private:
  struct Field {
    int offset = -1;  ///< first bit; -1 when the task is not a fork
    int width = 0;
  };

  const Field* FieldOf(TaskId fork) const;

  std::vector<Field> fields_;  // dense by task index
  std::size_t bit_count_ = 0;
  bool valid_ = false;
};

}  // namespace actg::ctg

#endif  // ACTG_CTG_CONDITION_BITSET_H
