#include "campaign/checkpoint.h"

#include <bit>
#include <sstream>
#include <string>
#include <utility>

#include "util/hash.h"
#include "util/line_reader.h"

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

std::string HexText(std::uint64_t value) {
  std::ostringstream os;
  os << std::hex << value;
  return os.str();
}

std::string HexBits(double value) {
  return HexText(std::bit_cast<std::uint64_t>(value));
}

double Bits(const util::LineReader& reader, const std::string& token) {
  return std::bit_cast<double>(reader.Hex(token));
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

}  // namespace

std::uint64_t FingerprintSpec(const CampaignSpec& spec) {
  std::ostringstream text;
  WriteCampaignFile(text, spec);
  return util::HashBytes(text.str());
}

void WriteCheckpoint(std::ostream& os, const CampaignSpec& spec,
                     const std::vector<char>& done,
                     const std::vector<ShardOutput>& outputs) {
  os << "checkpoint v2\n";
  os << "fingerprint " << HexText(FingerprintSpec(spec)) << "\n";
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

CheckpointState ReadCheckpoint(util::LineReader& reader,
                               const CampaignSpec& spec) {
  if (!reader.Next() || !reader.Is("checkpoint v2")) {
    if (reader.Is("checkpoint v1")) {
      reader.Fail("checkpoint v1 predates the v2 histogram format; "
                  "rerun without --resume");
    }
    reader.Fail("expected header 'checkpoint v2' (version skew?)");
  }
  if (!reader.Next() || reader.size() != 2 ||
      reader.directive() != "fingerprint") {
    reader.Fail("expected 'fingerprint <hex>'");
  }
  if (const std::uint64_t got = reader.Hex(reader[1]),
      want = FingerprintSpec(spec);
      got != want) {
    reader.Fail("spec fingerprint mismatch (checkpoint " + HexText(got) +
                ", spec " + HexText(want) +
                "): this checkpoint belongs to a different campaign");
  }
  if (!reader.Next() || reader.size() != 6 || reader[0] != "shards" ||
      reader[2] != "instances" || reader[4] != "cells") {
    reader.Fail("expected 'shards <S> instances <N> cells <C>'");
  }
  if (reader.U64(reader[1]) != spec.shards ||
      reader.U64(reader[3]) != spec.instances ||
      reader.U64(reader[5]) != spec.CellCount()) {
    reader.Fail("population shape mismatch against the spec");
  }

  CheckpointState state;
  state.done.assign(spec.shards, 0);
  state.outputs.resize(spec.shards);
  const std::size_t cells = spec.CellCount();

  while (true) {
    if (!reader.Next()) reader.Fail("truncated checkpoint: missing 'end'");
    if (reader[0] == "end") break;
    if (reader[0] != "shard" || reader.size() != 8 ||
        reader[2] != "begin" || reader[4] != "end" ||
        reader[6] != "oracle") {
      reader.Fail("expected 'shard <s> begin <b> end <e> oracle <n>' "
                  "or 'end', got '" + reader[0] + "'");
    }
    const std::size_t s = reader.U64(reader[1]);
    if (s >= spec.shards) reader.Fail("shard index out of range");
    if (state.done[s] != 0) {
      reader.Fail("duplicate shard " + std::to_string(s));
    }
    ShardOutput& out = state.outputs[s];
    out.exec.begin = reader.U64(reader[3]);
    out.exec.end = reader.U64(reader[5]);
    const auto [begin, end] =
        Campaign::ShardRange(spec.instances, spec.shards, s);
    if (out.exec.begin != begin || out.exec.end != end) {
      reader.Fail("shard " + std::to_string(s) +
                  " range disagrees with the spec's partition");
    }
    out.exec.oracle_validations = reader.U64(reader[7]);

    if (!reader.Next() || reader.size() != 5 || reader[0] != "tiers") {
      reader.Fail("expected 'tiers <4 counters>'");
    }
    out.exec.tiers.exact = reader.U64(reader[1]);
    out.exec.tiers.warm_prior = reader.U64(reader[2]);
    out.exec.tiers.full = reader.U64(reader[3]);
    out.exec.tiers.incremental_fallbacks = reader.U64(reader[4]);

    // qrec lines (0+), then exactly `cells` cell blocks.
    out.cells.assign(cells, CellStats(spec));
    std::size_t next_cell = 0;
    while (true) {
      if (!reader.Next()) {
        reader.Fail("truncated checkpoint: shard " + std::to_string(s) +
                    " is incomplete");
      }
      if (reader[0] == "qrec") {
        if (next_cell != 0) {
          reader.Fail("qrec lines must precede the cell blocks");
        }
        if (reader.size() < 5) {
          reader.Fail("expected 'qrec <index> <cell> <reason> "
                      "<attempts> <detail>'");
        }
        QuarantineRecord rec;
        rec.index = reader.U64(reader[1]);
        rec.cell = reader.U64(reader[2]);
        if (rec.cell >= cells) reader.Fail("qrec cell out of range");
        rec.reason = reader[3];
        rec.attempts = reader.U64(reader[4]);
        // Detail = the tokens after the 5th, single-space joined (inner
        // runs of whitespace collapse, which the single-line sanitizer
        // already did).
        for (const std::string& word : reader.tokens().subspan(5)) {
          if (!rec.detail.empty()) rec.detail += ' ';
          rec.detail += word;
        }
        out.exec.quarantine.push_back(std::move(rec));
        continue;
      }
      if (reader[0] != "cell" || reader.size() != 14) {
        reader.Fail("expected a 'cell' block (13 fields)");
      }
      if (reader.U64(reader[1]) != next_cell) {
        reader.Fail("cell blocks must appear in index order");
      }
      CellStats& cell = out.cells[next_cell];
      cell.app_instances = reader.U64(reader[2]);
      cell.executions = reader.U64(reader[3]);
      cell.deadline_misses = reader.U64(reader[4]);
      cell.reschedules = reader.U64(reader[5]);
      cell.escalations = reader.U64(reader[6]);
      cell.oob_reschedules = reader.U64(reader[7]);
      cell.recoveries = reader.U64(reader[8]);
      cell.overrun_instances = reader.U64(reader[9]);
      cell.faulted_instances = reader.U64(reader[10]);
      cell.failed_pe_hits = reader.U64(reader[11]);
      cell.oracle_sampled = reader.U64(reader[12]);
      cell.max_makespan_ms = Bits(reader, reader[13]);

      auto read_moments = [&](Moments& m) {
        if (!reader.Next() || reader.size() != 6 || reader[0] != "m") {
          reader.Fail("expected 'm <count> <sum hi lo> <sum_sq hi lo>'");
        }
        m = Moments::FromRaw(
            reader.U64(reader[1]),
            JoinWords(reader.U64(reader[2]), reader.U64(reader[3])),
            JoinWords(reader.U64(reader[4]), reader.U64(reader[5])));
      };
      auto read_histogram = [&](util::Histogram& h) {
        if (!reader.Next() || reader.size() < 3 ||
            reader.size() % 2 == 0 || reader[0] != "h") {
          reader.Fail("expected 'h <min bits> <max bits> "
                      "[<key> <count>]...'");
        }
        std::vector<util::Histogram::Bucket> buckets;
        for (std::size_t t = 3; t < reader.size(); t += 2) {
          buckets.push_back(
              {reader.U64(reader[t]), reader.U64(reader[t + 1])});
        }
        try {
          h = util::Histogram::FromRaw(Bits(reader, reader[1]),
                                       Bits(reader, reader[2]),
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
  return state;
}

}  // namespace

util::Expected<CheckpointState> LoadCheckpoint(std::istream& is,
                                               const CampaignSpec& spec) {
  // qrec details may contain a '#': only whole lines are comments.
  return util::ParseLines(
      is, "checkpoint",
      [&spec](util::LineReader& reader) {
        return ReadCheckpoint(reader, spec);
      },
      util::LineReader::Comments::kWholeLine);
}

}  // namespace actg::campaign
