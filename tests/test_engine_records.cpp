// Pins what every engine records when it is fully observed. Each case runs
// one backend with all four probe members attached (trace, counters,
// occupancy sampler, transfer log) and hashes every field those sinks
// hold: the transfer log's context, steps, rounds and transfers, every
// occupancy resource name and interval, the Chrome trace JSON, the counter
// snapshot and the RunReport JSON with its utilization attached. Each
// digest pins the exact bytes an engine records: a digest that has to
// change is a behaviour change to explain, not a constant to refresh.
//
// The second test checks that the sinks do not interact: each sink's
// output is the same whether it is attached alone or with the others, and
// a backend whose pattern cache was filled by an unobserved or a
// counters-only run records the same as a fresh one. The FlowRecords tests
// pin the flow engine's occupancy and its utilization analysis at sizes
// the 16-node cases do not reach, up to an N = 1024 ring. The last two pin
// the transfer log's compact layout: trivially copyable transfers naming
// their round's lane by index, in lists sized once from the schedule.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <vector>

#include "wrht/collectives/btree_allreduce.hpp"
#include "wrht/collectives/registry.hpp"
#include "wrht/collectives/ring_allreduce.hpp"
#include "wrht/core/planner.hpp"
#include "wrht/core/torus_wrht.hpp"
#include "wrht/core/wrht_schedule.hpp"
#include "wrht/electrical/electrical_backend.hpp"
#include "wrht/obs/analysis.hpp"
#include "wrht/obs/counters.hpp"
#include "wrht/obs/occupancy.hpp"
#include "wrht/obs/trace_json.hpp"
#include "wrht/obs/transfer_log.hpp"
#include "wrht/optical/optical_backend.hpp"

namespace wrht {
namespace {

/// 64-bit FNV-1a over the values fed to it; doubles hash by bit pattern
/// and strings by length then bytes, so no two field sequences collide
/// by concatenation.
class Digest {
 public:
  Digest& add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<unsigned char>(v >> (8 * i)));
    return *this;
  }
  Digest& add(double v) { return add(std::bit_cast<std::uint64_t>(v)); }
  Digest& add(Seconds v) { return add(v.count()); }
  Digest& add(std::string_view s) {
    add(static_cast<std::uint64_t>(s.size()));
    for (const char c : s) byte(static_cast<unsigned char>(c));
    return *this;
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  void byte(unsigned char b) { h_ = (h_ ^ b) * 0x100000001b3ULL; }
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::uint64_t digest(const obs::TransferLog& log) {
  Digest d;
  const obs::TransferLog::Context& c = log.context();
  d.add(c.backend).add(c.reconfig_policy).add(c.mrr_reconfig_delay);
  d.add(c.oeo_delay);
  d.add(static_cast<std::uint64_t>(log.steps().size()));
  for (const obs::StepTrace& s : log.steps()) {
    d.add(std::uint64_t{s.step}).add(s.label).add(s.start).add(s.duration);
  }
  d.add(static_cast<std::uint64_t>(log.rounds().size()));
  for (const obs::RoundTrace& r : log.rounds()) {
    d.add(std::uint64_t{r.step}).add(r.lane).add(std::uint64_t{r.round});
    d.add(r.start).add(r.reconfig).add(r.full_reconfig).add(r.conversion);
    d.add(r.serialization).add(r.processing).add(r.duration);
    d.add(std::uint64_t{r.retune});
  }
  d.add(static_cast<std::uint64_t>(log.transfers().size()));
  for (const obs::TransferTrace& t : log.transfers()) {
    d.add(std::uint64_t{t.step}).add(log.lane(t.lane));
    d.add(std::uint64_t{t.round});
    d.add(std::uint64_t{t.src}).add(std::uint64_t{t.dst}).add(t.elements);
    d.add(std::uint64_t{t.wavelength}).add(std::uint64_t{t.direction});
    d.add(t.start).add(t.duration);
  }
  return d.value();
}

std::uint64_t digest(const obs::OccupancySampler& sampler) {
  Digest d;
  d.add(static_cast<std::uint64_t>(sampler.num_resources()));
  for (obs::OccupancySampler::ResourceRef r = 0; r < sampler.num_resources();
       ++r) {
    d.add(sampler.name(r));
    d.add(static_cast<std::uint64_t>(sampler.intervals(r).size()));
    for (const obs::OccInterval& i : sampler.intervals(r)) {
      d.add(i.start).add(i.duration);
      d.add(static_cast<std::uint64_t>(i.category));
      d.add(std::uint64_t{i.step}).add(std::uint64_t{i.concurrency});
    }
  }
  return d.value();
}

std::uint64_t digest(const obs::ChromeTraceSink& trace) {
  std::ostringstream out;
  trace.write(out);
  return Digest().add(out.str()).value();
}

std::uint64_t digest(const obs::Counters& counters) {
  Digest d;
  for (const auto& [name, value] : counters.snapshot()) d.add(name).add(value);
  return d.value();
}

std::uint64_t digest(const RunReport& report) {
  std::ostringstream out;
  report.write_json(out);
  return Digest().add(out.str()).value();
}

/// One sink's digest per member of obs::Probe, plus the report's.
struct Records {
  std::uint64_t transfers = 0;
  std::uint64_t occupancy = 0;
  std::uint64_t trace = 0;
  std::uint64_t counters = 0;
  std::uint64_t report = 0;
  /// Whether some step split into several rounds (not hashed).
  bool multi_round = false;
};

enum class Engine { kRing, kTorus, kFlow, kPacket };

struct Case {
  std::string name;
  Engine engine = Engine::kRing;
  std::function<coll::Schedule()> schedule;
  /// The run's budget; multi-round cases set it below the one the
  /// schedule was planned for.
  std::uint32_t wavelengths = 8;
  bool random_fit = false;
  net::ReconfigPolicy policy = net::ReconfigPolicy::kEveryRound;
};

constexpr std::uint32_t kNodes = 16;
constexpr std::size_t kElements = 1000;  // chunk sizes differ by one

coll::Schedule wrht16(std::uint32_t planned_w) {
  return core::wrht_allreduce(
      kNodes, kElements,
      core::WrhtOptions{core::plan_wrht(kNodes, planned_w).group_size,
                        planned_w});
}

const topo::Torus kTorus(4, 8);

coll::Schedule torus_wrht(std::uint32_t planned_w) {
  return core::torus_wrht_allreduce(
      kTorus, 1003,
      core::WrhtOptions{core::plan_wrht(kTorus.cols(), planned_w).group_size,
                        planned_w});
}

std::unique_ptr<net::Backend> make_backend(const Case& c) {
  switch (c.engine) {
    case Engine::kRing:
    case Engine::kTorus: {
      optics::OpticalConfig config;
      config.wavelengths = c.wavelengths;
      config.reconfig_policy = c.policy;
      config.rwa_policy = c.random_fit ? optics::RwaPolicy::kRandomFit
                                       : optics::RwaPolicy::kFirstFit;
      config.rwa_threads = 1;
      if (c.engine == Engine::kRing) {
        return std::make_unique<optics::RingBackend>(kNodes, config, 7);
      }
      return std::make_unique<optics::TorusBackend>(kTorus, config, 7);
    }
    case Engine::kFlow:
      return std::make_unique<elec::FlowBackend>(kNodes,
                                                 elec::ElectricalConfig{});
    case Engine::kPacket:
      return std::make_unique<elec::PacketBackend>(kNodes,
                                                   elec::ElectricalConfig{});
  }
  return nullptr;
}

/// Which probe members a run attaches.
struct Sinks {
  bool transfers = true;
  bool occupancy = true;
  bool trace = true;
  bool counters = true;
};

Records observe(const net::Backend& backend, const coll::Schedule& schedule,
                Sinks sinks) {
  obs::TransferLog log;
  obs::OccupancySampler occupancy;
  obs::ChromeTraceSink trace("records");
  obs::Counters counters;
  obs::Probe probe;
  probe.track = 3;
  if (sinks.transfers) probe.transfers = &log;
  if (sinks.occupancy) probe.occupancy = &occupancy;
  if (sinks.trace) probe.trace = &trace;
  if (sinks.counters) probe.counters = &counters;
  const RunReport report = backend.execute(schedule, probe);
  return Records{digest(log),    digest(occupancy),
                 digest(trace),  digest(counters),
                 digest(report), report.rounds > report.steps};
}

std::vector<Case> all_cases() {
  struct Shape {
    std::string name;
    Engine engine;
    std::function<coll::Schedule()> schedule;
    std::uint32_t wavelengths = 8;
    bool random_fit = false;
  };
  const auto ring = [] { return coll::ring_allreduce(kNodes, kElements); };
  const auto btree = [] { return coll::btree_allreduce(kNodes, kElements); };
  const auto wrht = [] { return wrht16(8); };
  const auto wrht4 = [] { return wrht16(4); };
  const auto torus = [] { return torus_wrht(8); };
  const std::vector<Shape> shapes = {
      // Single-round steps.
      {"ring/ring", Engine::kRing, ring},
      {"ring/wrht", Engine::kRing, wrht},
      {"ring/btree", Engine::kRing, btree},
      // Wavelength-starved: steps planned for more than w=2 split into
      // rounds.
      {"ring/wrht/w2", Engine::kRing, wrht, 2},
      {"ring/wrht4/w2", Engine::kRing, wrht4, 2},
      {"ring/wrht/w2/random", Engine::kRing, wrht, 2, true},
      {"torus/wrht", Engine::kTorus, torus},
      {"torus/wrht/w2", Engine::kTorus, torus, 2},
      {"flow/ring", Engine::kFlow, ring},
      {"flow/wrht", Engine::kFlow, wrht},
      {"flow/btree", Engine::kFlow, btree},
      {"packet/ring", Engine::kPacket, ring},
      {"packet/wrht", Engine::kPacket, wrht},
      {"packet/btree", Engine::kPacket, btree},
  };
  std::vector<Case> out;
  for (const Shape& s : shapes) {
    for (const net::ReconfigPolicy policy :
         {net::ReconfigPolicy::kEveryRound, net::ReconfigPolicy::kOnRetune,
          net::ReconfigPolicy::kOverlapped}) {
      out.push_back(Case{s.name + "/" + net::to_string(policy), s.engine,
                         s.schedule, s.wavelengths, s.random_fit, policy});
    }
  }
  return out;
}

struct Expected {
  const char* name;
  Records records;
};

// One row per all_cases() entry, in order.
const Expected kExpected[] = {
    {"ring/ring/every_round",
     {0xfe037d495b301f2eULL, 0xb068bffb39361bd3ULL, 0x2385099b8e9d8996ULL,
      0xb8cbf68da76d0ef0ULL, 0x98b4a897b5b8996aULL}},
    {"ring/ring/on_retune",
     {0x1a6aa6b99f34f276ULL, 0x7e977c4343af8349ULL, 0x6e40a96e5b41e101ULL,
      0x22a539807c976a81ULL, 0x017ba3e86f2cacd7ULL}},
    {"ring/ring/overlapped",
     {0xd61de1e3c5f16f7fULL, 0x042f0812cd319571ULL, 0xa916b3a94e7be13cULL,
      0xb8cbf68da76d0ef0ULL, 0x3f1dc467d2e89dd8ULL}},
    {"ring/wrht/every_round",
     {0x78d652588d7ace9bULL, 0x1c21aa93f799af22ULL, 0x79fa536622771627ULL,
      0x4c7851ad6c52e553ULL, 0x831f23d064f9861bULL}},
    {"ring/wrht/on_retune",
     {0x76552134eb3fadceULL, 0x1c21aa93f799af22ULL, 0x79fa536622771627ULL,
      0xa322d83a97b800b5ULL, 0x831f23d064f9861bULL}},
    {"ring/wrht/overlapped",
     {0x2c58203a470853edULL, 0x8b3cf42f3e7036efULL, 0x7d06d7d3e2bb28cdULL,
      0x4c7851ad6c52e553ULL, 0x643869a7d6121ae1ULL}},
    {"ring/btree/every_round",
     {0xfbded4d8145d6648ULL, 0x96fb9f4e9b7fd002ULL, 0x5563955645170db8ULL,
      0x34670207ede36aceULL, 0xfae0fcb00eff25b5ULL}},
    {"ring/btree/on_retune",
     {0x3997c9a3392aea3bULL, 0x96fb9f4e9b7fd002ULL, 0x5563955645170db8ULL,
      0x8cda10e23a544324ULL, 0xfae0fcb00eff25b5ULL}},
    {"ring/btree/overlapped",
     {0xa1ce5c6cc22e15d4ULL, 0xf9251d75402d579eULL, 0x89f2f22757e430b4ULL,
      0x34670207ede36aceULL, 0x469911d60c65e35eULL}},
    {"ring/wrht/w2/every_round",
     {0xe4a87a589d928067ULL, 0x9cbd733370518deeULL, 0xb2dbfb4c0e064c60ULL,
      0x4d03ee83339a4264ULL, 0x0d649c7e1a6f4c1aULL}},
    {"ring/wrht/w2/on_retune",
     {0x16a13454f5a92caaULL, 0x9cbd733370518deeULL, 0xb2dbfb4c0e064c60ULL,
      0x27cc75f69168187aULL, 0x0d649c7e1a6f4c1aULL}},
    {"ring/wrht/w2/overlapped",
     {0x4f8547e2d098efc8ULL, 0xc1f3be7c0b47a82aULL, 0x8f3ae5dbcf4605e8ULL,
      0x4d03ee83339a4264ULL, 0xcbb9cd4286ff6abfULL}},
    {"ring/wrht4/w2/every_round",
     {0x525fcfadafbfc321ULL, 0xb6190ec4c5523c2fULL, 0xe3ff72a79783f522ULL,
      0x0507bf450de46137ULL, 0xde93bbe09b0a3865ULL}},
    {"ring/wrht4/w2/on_retune",
     {0xc2188389d834500eULL, 0xb6190ec4c5523c2fULL, 0xe3ff72a79783f522ULL,
      0x38e1d0c741a5795bULL, 0xde93bbe09b0a3865ULL}},
    {"ring/wrht4/w2/overlapped",
     {0x638eb6f30b89214bULL, 0x3977c68c44f252b4ULL, 0x94eec8dbbf3e61bfULL,
      0x0507bf450de46137ULL, 0x66075b7fe6b11014ULL}},
    {"ring/wrht/w2/random/every_round",
     {0x5016e6a76f16a4d7ULL, 0x9cbd733370518deeULL, 0xb2dbfb4c0e064c60ULL,
      0x4d03ee83339a4264ULL, 0x0d649c7e1a6f4c1aULL}},
    {"ring/wrht/w2/random/on_retune",
     {0x2d2f59d884695baaULL, 0x9cbd733370518deeULL, 0xb2dbfb4c0e064c60ULL,
      0x27cc75f69168187aULL, 0x0d649c7e1a6f4c1aULL}},
    {"ring/wrht/w2/random/overlapped",
     {0x204eb6966183dcbcULL, 0xc1f3be7c0b47a82aULL, 0x8f3ae5dbcf4605e8ULL,
      0x4d03ee83339a4264ULL, 0xcbb9cd4286ff6abfULL}},
    {"torus/wrht/every_round",
     {0xe52c0f7b11caaa0fULL, 0x50890193f562b37aULL, 0x502c1640832e3e4bULL,
      0x6c6916ab95e15dbbULL, 0x96761ccfc236e47bULL}},
    {"torus/wrht/on_retune",
     {0x3d93af11e9077eeaULL, 0x50890193f562b37aULL, 0x502c1640832e3e4bULL,
      0x6c6916ab95e15dbbULL, 0x96761ccfc236e47bULL}},
    {"torus/wrht/overlapped",
     {0x3af0f4bf17445e04ULL, 0x133dbd41d79fd474ULL, 0xbc01a6908db47eeeULL,
      0xafc7fad84c02113cULL, 0x024efa46b684af63ULL}},
    {"torus/wrht/w2/every_round",
     {0xd1461ef2a0021e4cULL, 0xccd02a8bf72c1b1bULL, 0xf94801ce117c124bULL,
      0x089b2dfc2f8d2f8dULL, 0xf80c2206e9c2901aULL}},
    {"torus/wrht/w2/on_retune",
     {0xc04896f740b3d519ULL, 0xccd02a8bf72c1b1bULL, 0xf94801ce117c124bULL,
      0x089b2dfc2f8d2f8dULL, 0xf80c2206e9c2901aULL}},
    {"torus/wrht/w2/overlapped",
     {0xe7bf8d4795d36cd6ULL, 0xd77e6c06a1b7466dULL, 0xab91d8da6cd42b4cULL,
      0x056a2a6c2078029bULL, 0xf35ba362ae81b594ULL}},
    {"flow/ring/every_round",
     {0x5eb6e801feba6104ULL, 0x3b801a2a27490863ULL, 0xaeb7896c5081aa21ULL,
      0x8976e34e30736199ULL, 0x0d95963baf28b6eeULL}},
    {"flow/ring/on_retune",
     {0x5eb6e801feba6104ULL, 0x3b801a2a27490863ULL, 0xaeb7896c5081aa21ULL,
      0x8976e34e30736199ULL, 0x0d95963baf28b6eeULL}},
    {"flow/ring/overlapped",
     {0x5eb6e801feba6104ULL, 0x3b801a2a27490863ULL, 0xaeb7896c5081aa21ULL,
      0x8976e34e30736199ULL, 0x0d95963baf28b6eeULL}},
    {"flow/wrht/every_round",
     {0x0a74762ab7f91368ULL, 0xc08c43d5e3bd87a7ULL, 0x57604dfb6abfc51cULL,
      0xad436e052a6e8f6bULL, 0x9d8840eddb3c0140ULL}},
    {"flow/wrht/on_retune",
     {0x0a74762ab7f91368ULL, 0xc08c43d5e3bd87a7ULL, 0x57604dfb6abfc51cULL,
      0xad436e052a6e8f6bULL, 0x9d8840eddb3c0140ULL}},
    {"flow/wrht/overlapped",
     {0x0a74762ab7f91368ULL, 0xc08c43d5e3bd87a7ULL, 0x57604dfb6abfc51cULL,
      0xad436e052a6e8f6bULL, 0x9d8840eddb3c0140ULL}},
    {"flow/btree/every_round",
     {0xe991f1b2f8742142ULL, 0x28c3c4dbd6b7e9b7ULL, 0x2551a483211fc959ULL,
      0xf31f1c40e57ffd01ULL, 0x644548692ede5f23ULL}},
    {"flow/btree/on_retune",
     {0xe991f1b2f8742142ULL, 0x28c3c4dbd6b7e9b7ULL, 0x2551a483211fc959ULL,
      0xf31f1c40e57ffd01ULL, 0x644548692ede5f23ULL}},
    {"flow/btree/overlapped",
     {0xe991f1b2f8742142ULL, 0x28c3c4dbd6b7e9b7ULL, 0x2551a483211fc959ULL,
      0xf31f1c40e57ffd01ULL, 0x644548692ede5f23ULL}},
    {"packet/ring/every_round",
     {0x86585d355654ab98ULL, 0x7f96f98ad6026a39ULL, 0x91c52a0e8fdc8c2bULL,
      0xe6b84b6beb3188c5ULL, 0xf316067395b7ec15ULL}},
    {"packet/ring/on_retune",
     {0x86585d355654ab98ULL, 0x7f96f98ad6026a39ULL, 0x91c52a0e8fdc8c2bULL,
      0xe6b84b6beb3188c5ULL, 0xf316067395b7ec15ULL}},
    {"packet/ring/overlapped",
     {0x86585d355654ab98ULL, 0x7f96f98ad6026a39ULL, 0x91c52a0e8fdc8c2bULL,
      0xe6b84b6beb3188c5ULL, 0xf316067395b7ec15ULL}},
    {"packet/wrht/every_round",
     {0x531f796ac62903c0ULL, 0xfacf503b9792898fULL, 0x6a8631479e496c66ULL,
      0x57b63ea5641e153cULL, 0x338819906287def6ULL}},
    {"packet/wrht/on_retune",
     {0x531f796ac62903c0ULL, 0xfacf503b9792898fULL, 0x6a8631479e496c66ULL,
      0x57b63ea5641e153cULL, 0x338819906287def6ULL}},
    {"packet/wrht/overlapped",
     {0x531f796ac62903c0ULL, 0xfacf503b9792898fULL, 0x6a8631479e496c66ULL,
      0x57b63ea5641e153cULL, 0x338819906287def6ULL}},
    {"packet/btree/every_round",
     {0xd70217246f303019ULL, 0x07b4d7d571588efaULL, 0xda6e51887546c1fbULL,
      0x5afb097a04595cacULL, 0x04248e0f7d0db974ULL}},
    {"packet/btree/on_retune",
     {0xd70217246f303019ULL, 0x07b4d7d571588efaULL, 0xda6e51887546c1fbULL,
      0x5afb097a04595cacULL, 0x04248e0f7d0db974ULL}},
    {"packet/btree/overlapped",
     {0xd70217246f303019ULL, 0x07b4d7d571588efaULL, 0xda6e51887546c1fbULL,
      0x5afb097a04595cacULL, 0x04248e0f7d0db974ULL}},
};

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// `records` as a kExpected row, so a moved digest can be reviewed.
std::string row(const std::string& name, const Records& r) {
  return "    {\"" + name + "\",\n     {" + hex(r.transfers) + "ULL, " +
         hex(r.occupancy) + "ULL, " + hex(r.trace) + "ULL,\n      " +
         hex(r.counters) + "ULL, " + hex(r.report) + "ULL}},\n";
}

TEST(EngineRecords, EveryObservedRecordMatchesItsPinnedDigest) {
  const std::vector<Case> cases = all_cases();
  ASSERT_EQ(std::size(kExpected), cases.size());
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const Case& c = cases[i];
    SCOPED_TRACE(c.name);
    ASSERT_EQ(std::string(kExpected[i].name), c.name);
    const coll::Schedule schedule = c.schedule();
    const Records got = observe(*make_backend(c), schedule, Sinks{});
    // Cases that cut the wavelength budget below the one the schedule was
    // planned for are the multi-round ones.
    EXPECT_EQ(got.multi_round, c.wavelengths < 8);
    const Records& want = kExpected[i].records;
    EXPECT_TRUE(got.transfers == want.transfers &&
                got.occupancy == want.occupancy && got.trace == want.trace &&
                got.counters == want.counters && got.report == want.report)
        << "recorded:\n" << row(c.name, got);
    EXPECT_EQ(hex(got.transfers), hex(want.transfers)) << "transfer log";
    EXPECT_EQ(hex(got.occupancy), hex(want.occupancy)) << "occupancy";
    EXPECT_EQ(hex(got.trace), hex(want.trace)) << "chrome trace";
    EXPECT_EQ(hex(got.counters), hex(want.counters)) << "counters";
    EXPECT_EQ(hex(got.report), hex(want.report)) << "run report";
  }
}

TEST(EngineRecords, EachSinkRecordsTheSameAloneAsWithTheOthers) {
  for (const Case& c : all_cases()) {
    SCOPED_TRACE(c.name);
    const coll::Schedule schedule = c.schedule();
    const Records all = observe(*make_backend(c), schedule, Sinks{});
    const Records log_only = observe(*make_backend(c), schedule,
                                     Sinks{true, false, false, false});
    const Records occupancy_only = observe(*make_backend(c), schedule,
                                           Sinks{false, true, false, false});
    const Records trace_only = observe(*make_backend(c), schedule,
                                       Sinks{false, false, true, false});
    const Records counters_only = observe(*make_backend(c), schedule,
                                          Sinks{false, false, false, true});
    EXPECT_EQ(log_only.transfers, all.transfers);
    EXPECT_EQ(occupancy_only.occupancy, all.occupancy);
    // The report carries utilization only when a sampler is attached.
    EXPECT_EQ(occupancy_only.report, all.report);
    EXPECT_EQ(log_only.report, trace_only.report);
    EXPECT_EQ(trace_only.trace, all.trace);
    EXPECT_EQ(counters_only.counters, all.counters);

    // A pattern cache warmed by lean runs must not leak into observed ones.
    for (const Sinks warm : {Sinks{false, false, false, false},
                             Sinks{false, false, false, true}}) {
      const std::unique_ptr<net::Backend> backend = make_backend(c);
      (void)observe(*backend, schedule, warm);
      const Records again = observe(*backend, schedule, Sinks{});
      EXPECT_EQ(again.transfers, all.transfers);
      EXPECT_EQ(again.occupancy, all.occupancy);
      EXPECT_EQ(again.trace, all.trace);
      EXPECT_EQ(again.report, all.report);
    }
  }
}

/// Every interval of an observed flow run, in resource order: per resource
/// its name, its interval count and a digest of its intervals' fields in
/// record order. One whole-run pass feeds the per-resource digests, so a
/// run of millions of intervals hashes in linear time.
std::uint64_t flow_occupancy_digest(const obs::OccupancySampler& sampler) {
  std::vector<Digest> per_resource(sampler.num_resources());
  sampler.for_each([&](const obs::OccInterval& i) {
    Digest& d = per_resource[i.resource];
    d.add(i.start).add(i.duration);
    d.add(static_cast<std::uint64_t>(i.category));
    d.add(std::uint64_t{i.step}).add(std::uint64_t{i.concurrency});
  });
  Digest d;
  d.add(static_cast<std::uint64_t>(sampler.num_resources()));
  for (obs::OccupancySampler::ResourceRef r = 0; r < sampler.num_resources();
       ++r) {
    d.add(sampler.name(r));
    d.add(static_cast<std::uint64_t>(sampler.intervals(r).size()));
    d.add(per_resource[r].value());
  }
  return d.value();
}

Digest& add(Digest& d, const TimeBreakdown& b) {
  d.add(b.transmission).add(b.reconfiguration).add(b.conversion);
  return d.add(b.processing).add(b.straggler_wait).add(b.idle);
}

/// The whole analyze_utilization output.
std::uint64_t digest(const obs::UtilizationAnalysis& a) {
  Digest d;
  add(d, a.breakdown).add(a.utilization);
  d.add(static_cast<std::uint64_t>(a.step_breakdowns.size()));
  for (const TimeBreakdown& b : a.step_breakdowns) add(d, b);
  d.add(static_cast<std::uint64_t>(a.critical_path.size()));
  for (const obs::CriticalPathEntry& e : a.critical_path) {
    d.add(std::uint64_t{e.step}).add(e.label).add(e.resource);
    d.add(e.duration).add(e.transmission);
  }
  d.add(a.critical_path_length).add(a.slack_free_fraction);
  d.add(static_cast<std::uint64_t>(a.resources.size()));
  for (const obs::ResourceUtilization& u : a.resources) {
    add(d.add(u.name), u.breakdown).add(u.utilization);
  }
  return d.value();
}

struct FlowDigests {
  std::uint64_t occupancy = 0;
  std::uint64_t analysis = 0;
};

/// Runs `schedule` on a fresh flow engine with only a sampler attached and
/// folds the run's occupancy and utilization digests into `occupancy`
/// and `analysis`.
void observe_flow(const coll::Schedule& schedule, Digest& occupancy,
                  Digest& analysis) {
  const elec::FlowBackend backend(schedule.num_nodes(),
                                  elec::ElectricalConfig{});
  obs::OccupancySampler sampler;
  obs::Probe probe;
  probe.occupancy = &sampler;
  const RunReport report = backend.execute(schedule, probe);
  occupancy.add(flow_occupancy_digest(sampler));
  analysis.add(digest(obs::analyze_utilization(report, sampler)));
}

std::string flow_row(const std::string& name, const FlowDigests& d) {
  return "    {\"" + name + "\", {" + hex(d.occupancy) + "ULL, " +
         hex(d.analysis) + "ULL}},\n";
}

/// Every registry algorithm x N {16, 64, 128, 256} x elements {N, 1000,
/// 2^16}, one row per algorithm. H-Ring takes Fig. 6's group size m = 5;
/// WRHT plans its own.
TEST(FlowRecords, EveryRegistryAlgorithmMatchesItsPinnedDigest) {
  core::register_wrht_algorithm();
  const coll::Registry& registry = coll::Registry::instance();
  const std::pair<const char*, FlowDigests> expected[] = {
      {"btree", {0x500b69161aefefd0ULL, 0x014b09738d2049eaULL}},
      {"halving_doubling", {0x7885f22d2bda43deULL, 0x4d604f2fe72a28bdULL}},
      {"hring", {0xfae09dcea87a9eccULL, 0x04fa66bdc942443cULL}},
      {"recursive_doubling", {0x7d782bc28ca4d547ULL, 0x37236aba9621ad6fULL}},
      {"ring", {0x31a95e891e5cff5aULL, 0x0cf0876874b34620ULL}},
      {"wrht", {0xbf75a451bcddf0a6ULL, 0x5f0388cf62efdaa3ULL}},
  };
  ASSERT_EQ(registry.names().size(), std::size(expected));
  for (const auto& [algorithm, want] : expected) {
    SCOPED_TRACE(algorithm);
    const std::uint32_t m = std::string_view(algorithm) == "hring" ? 5 : 0;
    Digest occupancy;
    Digest analysis;
    for (const std::uint32_t n : {16u, 64u, 128u, 256u}) {
      for (const std::size_t elements :
           {std::size_t{n}, std::size_t{1000}, std::size_t{1} << 16}) {
        observe_flow(registry.build(algorithm, {n, elements, m}), occupancy,
                     analysis);
      }
    }
    const FlowDigests got{occupancy.value(), analysis.value()};
    EXPECT_EQ(hex(got.occupancy), hex(want.occupancy))
        << "occupancy; recorded:\n" << flow_row(algorithm, got);
    EXPECT_EQ(hex(got.analysis), hex(want.analysis))
        << "utilization; recorded:\n" << flow_row(algorithm, got);
  }
}

/// The observe workload's largest flow run: an N = 1024 ring of 2^20
/// elements, 2 046 steps over 2 176 links.
TEST(FlowRecords, Ring1024MatchesItsPinnedDigest) {
  Digest occupancy;
  Digest analysis;
  observe_flow(coll::ring_allreduce(1024, std::size_t{1} << 20), occupancy,
               analysis);
  EXPECT_EQ(hex(occupancy.value()), hex(0x415af50f7a0e3b3bULL))
      << "occupancy";
  EXPECT_EQ(hex(analysis.value()), hex(0x475e6e91ec9fa4f7ULL))
      << "utilization";
}

static_assert(std::is_trivially_copyable_v<obs::TransferTrace>);
static_assert(sizeof(obs::TransferTrace) <= 56);

TEST(EngineRecords, TransferLogIsSizedOnceFromTheSchedule) {
  for (const Case& c : all_cases()) {
    SCOPED_TRACE(c.name);
    const coll::Schedule schedule = c.schedule();
    obs::TransferLog log;
    obs::Probe probe;
    probe.transfers = &log;
    (void)make_backend(c)->execute(schedule, probe);
    ASSERT_FALSE(log.transfers().empty());
    EXPECT_EQ(log.transfers().capacity(), log.transfers().size());
    EXPECT_EQ(log.steps().capacity(), log.steps().size());
  }
}

TEST(EngineRecords, TorusTransfersNameTheLaneOfTheirRound) {
  for (const std::uint32_t w : {8u, 2u}) {
    Case c;
    c.engine = Engine::kTorus;
    c.wavelengths = w;
    const coll::Schedule schedule = torus_wrht(8);
    obs::TransferLog log;
    obs::Probe probe;
    probe.transfers = &log;
    (void)make_backend(c)->execute(schedule, probe);
    std::set<std::tuple<std::uint32_t, std::string, std::uint32_t>> rounds;
    for (const obs::RoundTrace& r : log.rounds()) {
      rounds.emplace(r.step, r.lane, r.round);
    }
    std::set<std::string> lanes;
    for (const obs::TransferTrace& t : log.transfers()) {
      lanes.insert(log.lane(t.lane));
      EXPECT_TRUE(rounds.contains({t.step, log.lane(t.lane), t.round}))
          << "w=" << w << " step " << t.step << " lane " << log.lane(t.lane)
          << " round " << t.round;
    }
    // Both dimensions' rings carry transfers.
    EXPECT_GT(lanes.size(), 2u) << "w=" << w;
  }
}

}  // namespace
}  // namespace wrht
