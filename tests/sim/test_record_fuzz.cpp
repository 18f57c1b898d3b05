// Fuzz-style tests for the result-record decoders: the record codec both
// the scenario cache and the resume journal persist rows through, and the
// two file readers around it. A damaged or hostile record must come back
// as a rejected record (a diagnosed miss, a skipped journal line), never
// as an exception out of the decoder and never as a wrong row.

#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "common/hash.h"
#include "sim/campaign.h"
#include "sim/run_journal.h"
#include "sim/scenario_cache.h"
#include "sim/scenario_runner.h"

namespace nocbt::sim {
namespace {

ScenarioSpec synthetic_spec() {
  ScenarioSpec spec;
  spec.name = "fuzz/uniform";
  spec.generator = GeneratorKind::kUniform;
  spec.rows = 4;
  spec.cols = 4;
  spec.packets = 24;
  spec.seed = 99;
  return spec;
}

/// A row with two link rows and an error string holding every record
/// separator, so each part of the record layout is exercised.
ScenarioResult multi_link_row(const ScenarioSpec& spec) {
  ScenarioResult row;
  row.spec = spec;
  row.bt_baseline = 5000;
  row.bt_ordered = 4000;
  row.reduction = 0.2;
  row.energy_baseline_pj = 12.5;
  row.energy_pj = 10.0;
  row.power_baseline_mw = 0.25;
  row.power_mw = 0.2;
  row.cycles = 300;
  row.packets = 24;
  row.flits = 96;
  row.avg_latency = 9.75;
  row.avg_hops = 2.5;
  row.drained = true;
  row.sim.engine = noc::SimEngine::kActiveSet;
  hw::LinkEnergyRow link;
  link.link_id = 4;
  link.info.kind = noc::LinkKind::kEjection;
  link.info.src = 5;
  link.info.dst = -1;
  link.info.src_port = 2;
  link.flits = 40;
  link.transitions = 777;
  link.energy_pj = 134.421;
  row.links.push_back(link);
  link.link_id = 11;
  link.info.kind = noc::LinkKind::kInterRouter;
  row.links.push_back(link);
  row.error = "a,b%c\nd";
  return row;
}

std::vector<std::string> split(const std::string& line) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= line.size(); ++i)
    if (i == line.size() || line[i] == ',') {
      out.push_back(line.substr(start, i - start));
      start = i + 1;
    }
  return out;
}

/// `line` with field `index` replaced by `value` and its checksum redone,
/// so the record passes the integrity check and reaches the field parser.
std::string with_field(const std::string& line, std::size_t index,
                       const std::string& value) {
  std::vector<std::string> f = split(line);
  f.pop_back();  // the checksum
  f.at(index) = value;
  std::string body;
  for (std::size_t i = 0; i < f.size(); ++i) {
    if (i > 0) body += ',';
    body += f[i];
  }
  return body + ',' + fnv1a64_hex(body);
}

/// A link-free record claiming 2^61 link rows: 26 + 8 * 2^61 wraps to the
/// record's true field count of 26.
std::string huge_link_count_record(const std::string& hash) {
  ScenarioResult row = multi_link_row(synthetic_spec());
  row.links.clear();
  row.error.clear();
  const std::string line = encode_result_record(hash, 0, row);
  EXPECT_EQ(split(line).size(), 26u);
  return with_field(line, 23, "2305843009213693952");
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::string& body) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << body;
}

TEST(RecordFuzz, HugeLinkCountIsRejectedNotThrown) {
  const std::string line =
      huge_link_count_record(scenario_content_key(synthetic_spec(), "").hash);
  DecodedRecord decoded;
  std::string error;
  bool ok = true;
  EXPECT_NO_THROW(ok = decode_result_record(line, decoded, error));
  EXPECT_FALSE(ok);
  EXPECT_NE(error.find("link-row count"), std::string::npos) << error;
}

TEST(RecordFuzz, EveryTruncationIsRejected) {
  const ScenarioSpec spec = synthetic_spec();
  const std::string line = encode_result_record(
      scenario_content_key(spec, "").hash, 3, multi_link_row(spec));
  for (std::size_t len = 0; len < line.size(); ++len) {
    DecodedRecord decoded;
    std::string error;
    bool ok = true;
    EXPECT_NO_THROW(ok = decode_result_record(line.substr(0, len), decoded,
                                              error))
        << "length " << len;
    EXPECT_FALSE(ok) << "a record cut to " << len << " of " << line.size()
                     << " bytes was accepted";
    EXPECT_FALSE(error.empty()) << "length " << len;
  }
}

TEST(RecordFuzz, EverySingleByteChangeIsRejected) {
  const ScenarioSpec spec = synthetic_spec();
  const std::string line = encode_result_record(
      scenario_content_key(spec, "").hash, 3, multi_link_row(spec));
  const std::string replacements = "0129,-.%eE \nx";
  for (std::size_t pos = 0; pos < line.size(); ++pos) {
    std::string candidates = replacements;
    candidates += static_cast<char>(line[pos] ^ 0x01);
    candidates += static_cast<char>(line[pos] ^ 0x80);
    for (const char c : candidates) {
      if (c == line[pos]) continue;
      std::string changed = line;
      changed[pos] = c;
      DecodedRecord decoded;
      std::string error;
      bool ok = true;
      EXPECT_NO_THROW(ok = decode_result_record(changed, decoded, error))
          << "byte " << pos;
      EXPECT_FALSE(ok) << "byte " << pos << " changed to 0x" << std::hex
                       << (static_cast<unsigned>(c) & 0xFFu)
                       << " was accepted";
    }
  }
}

TEST(RecordFuzz, ResealedFieldDamageNeverThrows) {
  // The checksum redone after the damage: the field parser itself must
  // reject (or, for a still well-formed value, accept) without throwing.
  const ScenarioSpec spec = synthetic_spec();
  const std::string line = encode_result_record(
      scenario_content_key(spec, "").hash, 3, multi_link_row(spec));
  const std::size_t fields = split(line).size() - 1;  // all but the checksum
  const std::vector<std::string> values = {
      "", "-1", "x", "1e999", "nan", "-0", "18446744073709551616",
      "2305843009213693952", "4", "%", "%zz", "0,0"};
  for (std::size_t i = 0; i < fields; ++i)
    for (const std::string& v : values) {
      DecodedRecord decoded;
      std::string error;
      EXPECT_NO_THROW((void)decode_result_record(with_field(line, i, v),
                                                 decoded, error))
          << "field " << i << " = '" << v << "'";
    }
}

TEST(RecordFuzz, AwkwardDoublesRoundTripBitExactly) {
  const ScenarioSpec spec = synthetic_spec();
  const std::vector<double> awkward = {
      -0.0, std::numeric_limits<double>::denorm_min(), DBL_MAX, -DBL_MAX,
      DBL_MIN, -std::numeric_limits<double>::denorm_min()};
  for (const double v : awkward) {
    ScenarioResult row = multi_link_row(spec);
    row.reduction = v;
    row.energy_baseline_pj = v;
    row.energy_pj = v;
    row.power_baseline_mw = v;
    row.power_mw = v;
    row.avg_latency = v;
    row.avg_hops = v;
    for (hw::LinkEnergyRow& link : row.links) link.energy_pj = v;
    DecodedRecord decoded;
    std::string error;
    ASSERT_TRUE(decode_result_record(
        encode_result_record(scenario_content_key(spec, "").hash, 0, row),
        decoded, error))
        << error;
    const ScenarioResult& got = decoded.row;
    for (const double d :
         {got.reduction, got.energy_baseline_pj, got.energy_pj,
          got.power_baseline_mw, got.power_mw, got.avg_latency, got.avg_hops,
          got.links.at(0).energy_pj, got.links.at(1).energy_pj})
      EXPECT_EQ(std::bit_cast<std::uint64_t>(d),
                std::bit_cast<std::uint64_t>(v))
          << "value " << v << " came back as " << d;
  }
}

TEST(RunJournalFuzz, HugeLinkCountRecordIsSkippedWithWarning) {
  const std::string path = testing::TempDir() + "nocbt_journal_huge.jnl";
  const ScenarioSpec spec = synthetic_spec();
  const std::string hash = scenario_content_key(spec, "").hash;
  {
    RunJournal journal(path, std::string(32, 'a'), 2, /*fresh=*/true);
    journal.append(hash, 0, multi_link_row(spec));
  }
  write_file(path, read_file(path) +
                       huge_link_count_record(std::string(32, 'b')) + '\n');

  JournalContents contents;
  EXPECT_NO_THROW(contents = read_journal(path));
  ASSERT_TRUE(contents.header_ok);
  EXPECT_EQ(contents.rows.size(), 1u) << "the intact record still resumes";
  EXPECT_EQ(contents.rows.count(hash), 1u);
  ASSERT_EQ(contents.warnings.size(), 1u);
  EXPECT_NE(contents.warnings[0].find("record 2"), std::string::npos)
      << contents.warnings[0];
}

TEST(RunJournalFuzz, EveryTruncationReadsWithoutThrowing) {
  const std::string path = testing::TempDir() + "nocbt_journal_fuzz.jnl";
  const ScenarioSpec spec = synthetic_spec();
  const std::string hash_a = scenario_content_key(spec, "").hash;
  const std::string hash_b(32, 'c');
  {
    RunJournal journal(path, std::string(32, 'a'), 2, /*fresh=*/true);
    journal.append(hash_a, 0, multi_link_row(spec));
    journal.append(hash_b, 1, multi_link_row(spec));
  }
  const std::string body = read_file(path);
  const std::size_t second = body.rfind("rec,");
  for (std::size_t len = 0; len < body.size(); ++len) {
    write_file(path, body.substr(0, len));
    JournalContents contents;
    EXPECT_NO_THROW(contents = read_journal(path)) << "length " << len;
    // Only whole records survive: the second one only with its last byte
    // (the newline) at most missing.
    EXPECT_LE(contents.rows.size(), len + 1 >= body.size() ? 2u : 1u)
        << "length " << len;
    if (len < second) {
      EXPECT_EQ(contents.rows.count(hash_b), 0u) << "length " << len;
    }
  }
}

TEST(ScenarioCacheFuzz, HugeLinkCountEntryIsIgnoredAndResimulated) {
  const std::string dir = testing::TempDir() + "nocbt_cache_huge";
  CampaignSpec camp;
  camp.name = "fuzz";
  camp.generators = {GeneratorKind::kUniform};
  camp.modes = {ordering::OrderingMode::kAffiliated};
  camp.base.packets = 8;
  const ScenarioSpec scenario = camp.expand().at(0);
  const std::string hash = scenario_content_key(scenario, camp.hooks.id).hash;
  const ScenarioResult fresh = run_single_scenario(camp);
  ASSERT_TRUE(fresh.error.empty()) << fresh.error;

  // A well-formed entry whose record claims 2^61 link rows.
  const std::string path = dir + "/" + hash + ".row";
  {
    ScenarioCache writer(dir);
    writer.store(hash, fresh);
  }
  const std::string entry = read_file(path);
  const std::string header = entry.substr(0, entry.find('\n') + 1);
  write_file(path, header + huge_link_count_record(hash) + '\n');

  ScenarioCache cache(dir);
  SingleRunOutcome out;
  EXPECT_NO_THROW(out = run_single_scenario_cached(camp, &cache));
  EXPECT_FALSE(out.cache_hit) << "the damaged entry must not be served";
  EXPECT_TRUE(out.row == fresh) << "the row is simulated again";
  const auto diags = cache.take_diagnostics();
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_NE(diags[0].find("link-row count"), std::string::npos) << diags[0];
  EXPECT_EQ(cache.stores(), 1u) << "the re-simulated row replaces the entry";
}

TEST(ScenarioCacheFuzz, EveryTruncatedEntryIsADiagnosedMiss) {
  const std::string dir = testing::TempDir() + "nocbt_cache_fuzz";
  const ScenarioSpec spec = synthetic_spec();
  const std::string hash = scenario_content_key(spec, "").hash;
  {
    ScenarioCache writer(dir);
    writer.store(hash, multi_link_row(spec));
  }
  const std::string path = dir + "/" + hash + ".row";
  const std::string entry = read_file(path);
  // Dropping only the final newline leaves an intact entry; any shorter
  // cut loses part of the record or the header.
  for (std::size_t len = 0; len + 1 < entry.size(); ++len) {
    write_file(path, entry.substr(0, len));
    ScenarioCache cache(dir);
    bool hit = true;
    EXPECT_NO_THROW(hit = cache.lookup(spec, hash).has_value())
        << "length " << len;
    EXPECT_FALSE(hit) << "length " << len;
    EXPECT_EQ(cache.take_diagnostics().size(), 1u) << "length " << len;
  }
}

}  // namespace
}  // namespace nocbt::sim
