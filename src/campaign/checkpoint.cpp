#include "campaign/checkpoint.h"

#include <bit>
#include <cstdlib>
#include <sstream>
#include <string>
#include <utility>

namespace actg::campaign {

namespace {

void SplitWords(__int128 value, std::uint64_t& hi, std::uint64_t& lo) {
  const auto u = static_cast<unsigned __int128>(value);
  hi = static_cast<std::uint64_t>(u >> 64);
  lo = static_cast<std::uint64_t>(u);
}

__int128 JoinWords(std::uint64_t hi, std::uint64_t lo) {
  return static_cast<__int128>(
      (static_cast<unsigned __int128>(hi) << 64) | lo);
}

std::string HexBits(double value) {
  std::ostringstream os;
  os << std::hex << std::bit_cast<std::uint64_t>(value);
  return os.str();
}

void WriteMoments(std::ostream& os, const Moments& m) {
  std::uint64_t sum_hi = 0, sum_lo = 0, sq_hi = 0, sq_lo = 0;
  SplitWords(m.raw_sum(), sum_hi, sum_lo);
  SplitWords(m.raw_sum_sq(), sq_hi, sq_lo);
  os << "m " << m.count() << " " << sum_hi << " " << sum_lo << " "
     << sq_hi << " " << sq_lo << "\n";
}

void WriteHistogram(std::ostream& os, const util::Histogram& h) {
  os << "h " << HexBits(h.min()) << " " << HexBits(h.max());
  for (const util::Histogram::Bucket& b : h.buckets()) {
    os << " " << b.key << " " << b.count;
  }
  os << "\n";
}

/// Line-oriented reader mirroring the campaign-v1 one, with
/// "checkpoint line N: ..." diagnostics. Unlike the spec reader it only
/// skips lines *starting* with '#' (qrec details may contain one).
struct CheckpointReader {
  std::istream& is;
  int line_number = 0;

  [[noreturn]] void Fail(const std::string& message) const {
    throw InvalidArgument("checkpoint line " +
                          std::to_string(line_number) + ": " + message);
  }

  bool NextTokens(std::vector<std::string>& tokens) {
    std::string line;
    while (std::getline(is, line)) {
      ++line_number;
      if (!line.empty() && line.back() == '\r') line.pop_back();
      const std::size_t first = line.find_first_not_of(" \t");
      if (first == std::string::npos || line[first] == '#') continue;
      std::istringstream split(line);
      tokens.clear();
      for (std::string tok; split >> tok;) tokens.push_back(tok);
      if (tokens.empty()) continue;
      return true;
    }
    return false;
  }

  std::uint64_t U64(const std::string& token, int base = 10) const {
    if (token.empty()) Fail("expected an integer, got an empty token");
    const char* begin = token.c_str();
    char* end = nullptr;
    errno = 0;
    const unsigned long long value = std::strtoull(begin, &end, base);
    if (end != begin + token.size() || errno != 0 || token[0] == '-') {
      Fail("expected an integer, got '" + token + "'");
    }
    return static_cast<std::uint64_t>(value);
  }

  std::size_t Count(const std::string& token) const {
    return static_cast<std::size_t>(U64(token));
  }

  double Bits(const std::string& token) const {
    return std::bit_cast<double>(U64(token, 16));
  }
};

}  // namespace

std::uint64_t FingerprintSpec(const CampaignSpec& spec) {
  std::ostringstream text;
  WriteCampaignFile(text, spec);
  // FNV-1a 64 over the canonical serialization.
  std::uint64_t fp = 0xCBF29CE484222325ULL;
  for (const char c : text.str()) {
    fp ^= static_cast<unsigned char>(c);
    fp *= 0x100000001B3ULL;
  }
  return fp;
}

void WriteCheckpoint(std::ostream& os, const CampaignSpec& spec,
                     const std::vector<char>& done,
                     const std::vector<ShardOutput>& outputs) {
  os << "checkpoint v2\n";
  os << "fingerprint " << std::hex << FingerprintSpec(spec) << std::dec
     << "\n";
  os << "shards " << spec.shards << " instances " << spec.instances
     << " cells " << spec.CellCount() << "\n";
  for (std::size_t s = 0; s < outputs.size(); ++s) {
    if (s >= done.size() || done[s] == 0) continue;
    const ShardOutput& out = outputs[s];
    os << "shard " << s << " begin " << out.exec.begin << " end "
       << out.exec.end << " oracle " << out.exec.oracle_validations
       << "\n";
    const adaptive::TierCounts& t = out.exec.tiers;
    os << "tiers " << t.exact << " " << t.warm_prior << " " << t.full
       << " " << t.incremental_fallbacks << "\n";
    for (const QuarantineRecord& rec : out.exec.quarantine) {
      os << "qrec " << rec.index << " " << rec.cell << " " << rec.reason
         << " " << rec.attempts << " " << rec.detail << "\n";
    }
    for (std::size_t c = 0; c < out.cells.size(); ++c) {
      const CellStats& cell = out.cells[c];
      os << "cell " << c << " " << cell.app_instances << " "
         << cell.executions << " " << cell.deadline_misses << " "
         << cell.reschedules << " " << cell.escalations << " "
         << cell.oob_reschedules << " " << cell.recoveries << " "
         << cell.overrun_instances << " " << cell.faulted_instances
         << " " << cell.failed_pe_hits << " " << cell.oracle_sampled
         << " " << HexBits(cell.max_makespan_ms) << "\n";
      WriteMoments(os, cell.energy);
      WriteHistogram(os, cell.energy_hist);
      WriteMoments(os, cell.makespan);
      WriteHistogram(os, cell.makespan_hist);
      WriteMoments(os, cell.resched_per_app);
    }
  }
  os << "end\n";
}

namespace {

CheckpointState LoadCheckpointImpl(std::istream& is,
                                   const CampaignSpec& spec) {
  CheckpointReader reader{is};
  std::vector<std::string> tokens;
  if (!reader.NextTokens(tokens) || tokens.size() != 2 ||
      tokens[0] != "checkpoint" || tokens[1] != "v2") {
    if (tokens.size() == 2 && tokens[0] == "checkpoint" &&
        tokens[1] == "v1") {
      reader.Fail("checkpoint v1 predates the v2 histogram format; "
                  "rerun without --resume");
    }
    reader.Fail("expected header 'checkpoint v2' (version skew?)");
  }
  if (!reader.NextTokens(tokens) || tokens.size() != 2 ||
      tokens[0] != "fingerprint") {
    reader.Fail("expected 'fingerprint <hex>'");
  }
  {
    std::ostringstream got, want;
    got << std::hex << reader.U64(tokens[1], 16);
    want << std::hex << FingerprintSpec(spec);
    if (got.str() != want.str()) {
      reader.Fail("spec fingerprint mismatch (checkpoint " + got.str() +
                  ", spec " + want.str() +
                  "): this checkpoint belongs to a different campaign");
    }
  }
  if (!reader.NextTokens(tokens) || tokens.size() != 6 ||
      tokens[0] != "shards" || tokens[2] != "instances" ||
      tokens[4] != "cells") {
    reader.Fail("expected 'shards <S> instances <N> cells <C>'");
  }
  if (reader.Count(tokens[1]) != spec.shards ||
      reader.Count(tokens[3]) != spec.instances ||
      reader.Count(tokens[5]) != spec.CellCount()) {
    reader.Fail("population shape mismatch against the spec");
  }

  CheckpointState state;
  state.done.assign(spec.shards, 0);
  state.outputs.resize(spec.shards);
  const std::size_t cells = spec.CellCount();

  bool saw_end = false;
  while (reader.NextTokens(tokens)) {
    if (tokens[0] == "end") {
      saw_end = true;
      break;
    }
    if (tokens[0] != "shard" || tokens.size() != 8 ||
        tokens[2] != "begin" || tokens[4] != "end" ||
        tokens[6] != "oracle") {
      reader.Fail("expected 'shard <s> begin <b> end <e> oracle <n>' "
                  "or 'end', got '" + tokens[0] + "'");
    }
    const std::size_t s = reader.Count(tokens[1]);
    if (s >= spec.shards) reader.Fail("shard index out of range");
    if (state.done[s] != 0) {
      reader.Fail("duplicate shard " + std::to_string(s));
    }
    ShardOutput& out = state.outputs[s];
    out.exec.begin = reader.Count(tokens[3]);
    out.exec.end = reader.Count(tokens[5]);
    const auto [begin, end] =
        Campaign::ShardRange(spec.instances, spec.shards, s);
    if (out.exec.begin != begin || out.exec.end != end) {
      reader.Fail("shard " + std::to_string(s) +
                  " range disagrees with the spec's partition");
    }
    out.exec.oracle_validations = reader.Count(tokens[7]);

    if (!reader.NextTokens(tokens) || tokens.size() != 5 ||
        tokens[0] != "tiers") {
      reader.Fail("expected 'tiers <4 counters>'");
    }
    out.exec.tiers.exact = reader.U64(tokens[1]);
    out.exec.tiers.warm_prior = reader.U64(tokens[2]);
    out.exec.tiers.full = reader.U64(tokens[3]);
    out.exec.tiers.incremental_fallbacks = reader.U64(tokens[4]);

    // qrec lines (0+), then exactly `cells` cell blocks.
    out.cells.assign(cells, CellStats(spec));
    std::size_t next_cell = 0;
    while (true) {
      if (!reader.NextTokens(tokens)) {
        reader.Fail("truncated checkpoint: shard " + std::to_string(s) +
                    " is incomplete");
      }
      if (tokens[0] == "qrec") {
        if (next_cell != 0) {
          reader.Fail("qrec lines must precede the cell blocks");
        }
        if (tokens.size() < 5) {
          reader.Fail("expected 'qrec <index> <cell> <reason> "
                      "<attempts> <detail>'");
        }
        QuarantineRecord rec;
        rec.index = reader.Count(tokens[1]);
        rec.cell = reader.Count(tokens[2]);
        if (rec.cell >= cells) reader.Fail("qrec cell out of range");
        rec.reason = tokens[3];
        rec.attempts = reader.Count(tokens[4]);
        // Detail = the raw remainder after the 5th token's position;
        // reconstruct from the tokenization (inner runs of whitespace
        // collapse, which the single-line sanitizer already did).
        for (std::size_t t = 5; t < tokens.size(); ++t) {
          if (t > 5) rec.detail += ' ';
          rec.detail += tokens[t];
        }
        out.exec.quarantine.push_back(std::move(rec));
        continue;
      }
      if (tokens[0] != "cell" || tokens.size() != 14) {
        reader.Fail("expected a 'cell' block (13 fields)");
      }
      if (reader.Count(tokens[1]) != next_cell) {
        reader.Fail("cell blocks must appear in index order");
      }
      CellStats& cell = out.cells[next_cell];
      cell.app_instances = reader.Count(tokens[2]);
      cell.executions = reader.Count(tokens[3]);
      cell.deadline_misses = reader.Count(tokens[4]);
      cell.reschedules = reader.Count(tokens[5]);
      cell.escalations = reader.Count(tokens[6]);
      cell.oob_reschedules = reader.Count(tokens[7]);
      cell.recoveries = reader.Count(tokens[8]);
      cell.overrun_instances = reader.Count(tokens[9]);
      cell.faulted_instances = reader.Count(tokens[10]);
      cell.failed_pe_hits = reader.Count(tokens[11]);
      cell.oracle_sampled = reader.Count(tokens[12]);
      cell.max_makespan_ms = reader.Bits(tokens[13]);

      auto read_moments = [&](Moments& m) {
        if (!reader.NextTokens(tokens) || tokens.size() != 6 ||
            tokens[0] != "m") {
          reader.Fail("expected 'm <count> <sum hi lo> <sum_sq hi lo>'");
        }
        m = Moments::FromRaw(
            reader.Count(tokens[1]),
            JoinWords(reader.U64(tokens[2]), reader.U64(tokens[3])),
            JoinWords(reader.U64(tokens[4]), reader.U64(tokens[5])));
      };
      auto read_histogram = [&](util::Histogram& h) {
        if (!reader.NextTokens(tokens) || tokens.size() < 3 ||
            tokens.size() % 2 == 0 || tokens[0] != "h") {
          reader.Fail("expected 'h <min bits> <max bits> "
                      "[<key> <count>]...'");
        }
        std::vector<util::Histogram::Bucket> buckets;
        for (std::size_t t = 3; t < tokens.size(); t += 2) {
          buckets.push_back(
              {reader.U64(tokens[t]), reader.U64(tokens[t + 1])});
        }
        try {
          h = util::Histogram::FromRaw(reader.Bits(tokens[1]),
                                       reader.Bits(tokens[2]),
                                       std::move(buckets));
        } catch (const InvalidArgument& e) {
          reader.Fail(e.what());
        }
      };
      read_moments(cell.energy);
      read_histogram(cell.energy_hist);
      read_moments(cell.makespan);
      read_histogram(cell.makespan_hist);
      read_moments(cell.resched_per_app);
      if (++next_cell == cells) break;
    }
    state.done[s] = 1;
  }
  if (!saw_end) {
    reader.Fail("truncated checkpoint: missing 'end'");
  }
  return state;
}

}  // namespace

util::Expected<CheckpointState> LoadCheckpoint(std::istream& is,
                                               const CampaignSpec& spec) {
  try {
    return LoadCheckpointImpl(is, spec);
  } catch (const InvalidArgument& e) {
    return util::Error::Invalid(e.what());
  }
}

}  // namespace actg::campaign
