/// \file checkpoint.h
/// The durable checkpoint-v2 format for crash-safe campaigns.
///
/// A campaign's unit of recovery is the shard: every shard output is a
/// pure function of (spec, shard), so a checkpoint is simply the set of
/// completed shard outputs plus the identity of the spec they were
/// computed for. Resuming loads the completed shards verbatim and
/// re-runs only the rest — byte-identity of the resumed report with an
/// uninterrupted run follows directly, at any --jobs count and any kill
/// point, because the merge consumes the same per-shard states in the
/// same shard order either way.
///
/// The format follows the shared line grammar of util/line_reader.h
/// (diagnostics "checkpoint line N: ..."), except that only a line whose
/// first token starts with '#' is a comment: qrec details may contain
/// one. It is a machine format: every accumulator is serialized as its
/// exact integer state (__int128 sums as hi/lo 64-bit words, doubles as
/// IEEE-754 bit patterns in hex), so a load followed by a store
/// round-trips bit-identically.
///
///   checkpoint v2
///   fingerprint <hex16>        # FNV-1a 64 of WriteCampaignFile(spec)
///   shards <S> instances <N> cells <C>
///   shard <s> begin <b> end <e> oracle <n>
///   tiers <exact> <warm_prior> <full> <fallbacks>
///   qrec <index> <cell> <reason> <attempts> <detail to end of line>
///   cell <c> <apps> <exec> <miss> <resched> <esc> <oob> <rec>
///        <overrun> <faulted> <pe_hits> <oracle> <max_makespan_bits>
///   m <count> <sum_hi> <sum_lo> <sum_sq_hi> <sum_sq_lo>
///   h <min_bits> <max_bits> [<key> <count>]...
///   ...                        # m/h x5 per cell: energy m+h,
///                              # makespan m+h, resched_per_app m
///   end
///
/// An `h` record is a util::Histogram's exact state: its min and max as
/// IEEE-754 bits and one (key, count) pair per occupied bucket, keys
/// increasing. A checkpoint-v1 file (fixed-bin histograms, six tier
/// slots) is refused: its campaign must rerun without --resume.
///
/// Shard blocks appear in completion order (any subset of [0, S) is a
/// valid checkpoint; which shards are present depends on timing, the
/// *content* of each present shard does not). The writer never writes
/// the file directly — Campaign routes it through util::AtomicFile, so
/// a reader observes either the previous complete checkpoint or the new
/// one, never a torn prefix.
///
/// Wall-clock metrics registries are NOT checkpointed (latency
/// percentiles are diagnostics, never part of the deterministic
/// report); a restored shard's ShardOutput::metrics stays null.

#ifndef ACTG_CAMPAIGN_CHECKPOINT_H
#define ACTG_CAMPAIGN_CHECKPOINT_H

#include <cstdint>
#include <istream>
#include <ostream>
#include <vector>

#include "campaign/runner.h"
#include "campaign/spec.h"
#include "util/error.h"

namespace actg::campaign {

/// Identity a checkpoint binds to: FNV-1a 64 over the
/// WriteCampaignFile serialization of \p spec. Any knob that changes
/// the serialization (axes, seeds, quarantine knobs, ...) changes the
/// fingerprint, so a checkpoint can never be resumed against a spec it
/// was not computed for.
std::uint64_t FingerprintSpec(const CampaignSpec& spec);

/// Completed-shard state restored from (or headed into) a checkpoint.
struct CheckpointState {
  /// Size spec.shards; done[s] != 0 marks outputs[s] as complete.
  std::vector<char> done;
  std::vector<ShardOutput> outputs;
};

/// Serializes the completed shards of \p outputs (those with
/// done[s] != 0) in the checkpoint-v2 format.
void WriteCheckpoint(std::ostream& os, const CampaignSpec& spec,
                     const std::vector<char>& done,
                     const std::vector<ShardOutput>& outputs);

/// Parses a checkpoint-v2 stream against \p spec. Malformed input,
/// version skew, a fingerprint mismatch or a shape mismatch (shard
/// count, instance count, cell count, shard ranges) is reported as a
/// util::Error with a "checkpoint line N: ..." diagnostic.
util::Expected<CheckpointState> LoadCheckpoint(std::istream& is,
                                               const CampaignSpec& spec);

}  // namespace actg::campaign

#endif  // ACTG_CAMPAIGN_CHECKPOINT_H
