#include "ctg/condition_bitset.h"

#include <algorithm>

namespace actg::ctg {

void BitGuard::AddMinterm(const BitMinterm& m) {
  // Absorption: a | (a & b) == a. Keep the weaker (implied-by) minterm.
  for (const BitMinterm& existing : minterms_) {
    if (m.Implies(existing)) return;  // covers duplicates too
  }
  std::erase_if(minterms_,
                [&](const BitMinterm& existing) { return existing.Implies(m); });
  minterms_.push_back(m);
}

void BitGuard::AndWithMinterm(const BitMinterm& m) {
  std::size_t kept = 0;
  for (std::size_t i = 0; i < minterms_.size(); ++i) {
    if (!minterms_[i].CompatibleWith(m)) continue;
    minterms_[kept] = minterms_[i];
    minterms_[kept].ConjoinWith(m);
    ++kept;
  }
  minterms_.resize(kept);
  // Conjoining can create newly absorbed pairs; re-normalize in place.
  for (std::size_t i = 0; i < minterms_.size();) {
    bool absorbed = false;
    for (std::size_t j = 0; j < minterms_.size(); ++j) {
      if (i != j && minterms_[i].Implies(minterms_[j])) {
        absorbed = true;
        break;
      }
    }
    if (absorbed) {
      minterms_.erase(minterms_.begin() +
                      static_cast<std::ptrdiff_t>(i));
    } else {
      ++i;
    }
  }
}

void BitGuard::AndWith(const BitGuard& other, BitGuard& scratch) {
  scratch.Clear();
  for (const BitMinterm& a : minterms_) {
    for (const BitMinterm& b : other.minterms_) {
      if (!a.CompatibleWith(b)) continue;
      BitMinterm product = a;
      product.ConjoinWith(b);
      scratch.AddMinterm(product);
    }
  }
  minterms_.swap(scratch.minterms_);
}

ConditionSpace::ConditionSpace(const std::vector<TaskId>& forks,
                               const std::vector<int>& arities) {
  if (forks.size() != arities.size()) return;
  std::size_t max_index = 0;
  for (TaskId fork : forks) {
    if (!fork.valid()) return;
    max_index = std::max(max_index, fork.index());
  }
  fields_.assign(forks.empty() ? 0 : max_index + 1, Field{});
  std::size_t offset = 0;
  for (std::size_t i = 0; i < forks.size(); ++i) {
    const int width = arities[i];
    if (width < 2 || offset + static_cast<std::size_t>(width) > kMaxBits) {
      fields_.clear();
      return;
    }
    Field& f = fields_[forks[i].index()];
    if (f.offset >= 0) {  // duplicate fork
      fields_.clear();
      return;
    }
    f.offset = static_cast<int>(offset);
    f.width = width;
    offset += static_cast<std::size_t>(width);
  }
  bit_count_ = offset;
  valid_ = true;
}

const ConditionSpace::Field* ConditionSpace::FieldOf(TaskId fork) const {
  if (!fork.valid() || fork.index() >= fields_.size()) return nullptr;
  const Field& f = fields_[fork.index()];
  return f.offset >= 0 ? &f : nullptr;
}

bool ConditionSpace::Encode(const Condition& c, BitMinterm& out) const {
  if (!valid_) return false;
  const Field* f = FieldOf(c.fork);
  if (f == nullptr || c.outcome < 0 || c.outcome >= f->width) return false;
  const std::size_t bit = static_cast<std::size_t>(f->offset + c.outcome);
  out.bits[bit / 64] |= std::uint64_t{1} << (bit % 64);
  for (int o = 0; o < f->width; ++o) {
    const std::size_t b = static_cast<std::size_t>(f->offset + o);
    out.mask[b / 64] |= std::uint64_t{1} << (b % 64);
  }
  return true;
}

bool ConditionSpace::Encode(const Minterm& m, BitMinterm& out) const {
  if (!valid_) return false;
  BitMinterm acc;
  for (const Condition& c : m.conditions()) {
    if (!Encode(c, acc)) return false;
  }
  out = acc;
  return true;
}

bool ConditionSpace::Encode(const Guard& g, BitGuard& out) const {
  if (!valid_) return false;
  out.Clear();
  for (const Minterm& m : g.minterms()) {
    BitMinterm bm;
    if (!Encode(m, bm)) return false;
    out.AddMinterm(bm);
  }
  return true;
}

bool ConditionSpace::EncodeAssignment(const BranchAssignment& assignment,
                                      BitMinterm& out) const {
  if (!valid_) return false;
  BitMinterm acc;
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    const Field& f = fields_[i];
    if (f.offset < 0) continue;
    const TaskId fork{static_cast<int>(i)};
    const int outcome =
        fork.index() < assignment.size() ? assignment.Get(fork) : -1;
    if (outcome < 0) continue;  // fork left unconstrained
    if (!Encode(Condition{fork, outcome}, acc)) return false;
  }
  out = acc;
  return true;
}

}  // namespace actg::ctg
