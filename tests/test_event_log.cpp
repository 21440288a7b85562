// EventLog (svc-events-1) unit tests: kind round-trips, JSONL write/read
// round-trips (including exact double timestamps and escaped causes), and
// schema-marker rejection of foreign files.
#include "wrht/obs/event_log.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <utility>

#include "wrht/common/error.hpp"

namespace wrht::obs {
namespace {

EventLog sample_log() {
  EventLog log;
  log.set_context(EventLog::Context{16, "backfill", 2023});
  log.record(ServiceEvent{ServiceEvent::Kind::kSubmit, Seconds(0.0), 1, 0, 0,
                          0, "arrival"});
  log.record(ServiceEvent{ServiceEvent::Kind::kAdmit, Seconds(0.0), 1, 0, 0,
                          0, "policy=backfill"});
  log.record(ServiceEvent{ServiceEvent::Kind::kGrant,
                          Seconds(0.1000000000000001), 1, 0, 4, 12,
                          "alg=wrht"});
  log.record(ServiceEvent{ServiceEvent::Kind::kComplete, Seconds(1.0 / 3.0),
                          1, 0, 4, 12, "release"});
  return log;
}

TEST(EventLog, KindNamesRoundTrip) {
  for (const auto kind :
       {ServiceEvent::Kind::kSubmit, ServiceEvent::Kind::kAdmit,
        ServiceEvent::Kind::kPreempt, ServiceEvent::Kind::kGrant,
        ServiceEvent::Kind::kStart, ServiceEvent::Kind::kComplete,
        ServiceEvent::Kind::kRetune}) {
    EXPECT_EQ(event_kind_from_string(to_string(kind)), kind);
  }
  EXPECT_THROW((void)event_kind_from_string("nonsense"), Error);
}

TEST(EventLog, JsonlRoundTripsExactly) {
  const EventLog log = sample_log();
  std::istringstream in(log.to_jsonl());
  const EventLog parsed = EventLog::read_jsonl(in);

  EXPECT_EQ(parsed.context(), log.context());
  ASSERT_EQ(parsed.size(), log.size());
  for (std::size_t i = 0; i < log.size(); ++i) {
    EXPECT_EQ(parsed.events()[i], log.events()[i]) << "event " << i;
    // The %.17g timestamps must reconstruct the exact double — the replay
    // identity in bench_svc_telemetry depends on this.
    EXPECT_EQ(parsed.events()[i].time.count(), log.events()[i].time.count());
  }
  // Re-serializing the parsed log reproduces the bytes.
  EXPECT_EQ(parsed.to_jsonl(), log.to_jsonl());
}

TEST(EventLog, FileRoundTrip) {
  const std::string path = "event_log_test.jsonl";
  sample_log().write_file(path);
  const EventLog parsed = EventLog::read_file(path);
  EXPECT_EQ(parsed.to_jsonl(), sample_log().to_jsonl());
  std::remove(path.c_str());
  EXPECT_THROW((void)EventLog::read_file(path), Error);  // gone
}

TEST(EventLog, CausesWithSpecialCharactersSurvive) {
  EventLog log;
  log.set_context(EventLog::Context{4, "fifo", 1});
  log.record(ServiceEvent{ServiceEvent::Kind::kSubmit, Seconds(0.0), 7, 2, 0,
                          0, "quote \" backslash \\ tab \t newline \n"});
  std::istringstream in(log.to_jsonl());
  const EventLog parsed = EventLog::read_jsonl(in);
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed.events()[0].cause,
            "quote \" backslash \\ tab \t newline \n");
}

TEST(EventLog, RejectsForeignOrMalformedStreams) {
  {
    std::istringstream in("");
    EXPECT_THROW((void)EventLog::read_jsonl(in), Error);  // no header
  }
  {
    std::istringstream in(
        "{\"schema\": \"other-schema-9\", \"fabric_wavelengths\": 4, "
        "\"policy\": \"fifo\", \"seed\": 1, \"events\": 0}\n");
    EXPECT_THROW((void)EventLog::read_jsonl(in), Error);  // wrong schema
  }
  {
    std::istringstream in(
        "{\"schema\": \"svc-events-1\", \"fabric_wavelengths\": 4, "
        "\"policy\": \"fifo\", \"seed\": 1, \"events\": 1}\n"
        "{\"kind\": \"submit\"}\n");
    EXPECT_THROW((void)EventLog::read_jsonl(in), Error);  // missing fields
  }
}

// Every malformed-input diagnostic must name the offending line and the
// reader must never crash or silently mis-replay a damaged log.
TEST(EventLog, TruncatedStreamNamesTheLastLine) {
  // Drop the final event: the header still declares 4, so the count check
  // has to flag the file as truncated.
  std::string jsonl = sample_log().to_jsonl();
  jsonl.erase(jsonl.rfind("{\"kind\": \"complete\""));
  std::istringstream in(jsonl);
  try {
    (void)EventLog::read_jsonl(in);
    FAIL() << "truncated stream accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("line 4"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos)
        << e.what();
  }
}

TEST(EventLog, MalformedEventNamesItsLine) {
  std::istringstream in(
      "{\"schema\": \"svc-events-1\", \"fabric_wavelengths\": 4, "
      "\"policy\": \"fifo\", \"seed\": 1, \"events\": 2}\n"
      "{\"kind\": \"submit\", \"t\": 0, \"job\": 1, \"tenant\": 0, "
      "\"w_lo\": 0, \"w_hi\": 0, \"cause\": \"arrival\"}\n"
      "{\"kind\": \"grant\", \"t\": 0.5}\n");
  try {
    (void)EventLog::read_jsonl(in);
    FAIL() << "malformed event accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
        << e.what();
  }
}

TEST(EventLog, WrongSchemaVersionNamesLineOne) {
  std::istringstream in(
      "{\"schema\": \"svc-events-2\", \"fabric_wavelengths\": 4, "
      "\"policy\": \"fifo\", \"seed\": 1, \"events\": 0}\n");
  try {
    (void)EventLog::read_jsonl(in);
    FAIL() << "wrong schema accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("line 1"), std::string::npos)
        << e.what();
  }
}

TEST(EventLog, OutOfOrderTimestampsAreRejected) {
  std::istringstream in(
      "{\"schema\": \"svc-events-1\", \"fabric_wavelengths\": 4, "
      "\"policy\": \"fifo\", \"seed\": 1, \"events\": 2}\n"
      "{\"kind\": \"submit\", \"t\": 1.5, \"job\": 1, \"tenant\": 0, "
      "\"w_lo\": 0, \"w_hi\": 0, \"cause\": \"arrival\"}\n"
      "{\"kind\": \"submit\", \"t\": 0.5, \"job\": 2, \"tenant\": 0, "
      "\"w_lo\": 0, \"w_hi\": 0, \"cause\": \"arrival\"}\n");
  try {
    (void)EventLog::read_jsonl(in);
    FAIL() << "time-reversed stream accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("out-of-order"), std::string::npos)
        << e.what();
  }
}

TEST(EventLog, ExtraEventsBeyondHeaderCountAreRejected) {
  std::string jsonl = sample_log().to_jsonl();  // header declares 4
  jsonl +=
      "{\"kind\": \"retune\", \"t\": 2.0, \"job\": 9, \"tenant\": 0, "
      "\"w_lo\": 0, \"w_hi\": 0, \"cause\": \"stray\"}\n";
  std::istringstream in(jsonl);
  EXPECT_THROW((void)EventLog::read_jsonl(in), Error);
}

constexpr const char* kHeaderTwoEvents =
    "{\"schema\": \"svc-events-1\", \"fabric_wavelengths\": 4, "
    "\"policy\": \"fifo\", \"seed\": 1, \"events\": 2}\n";
constexpr const char* kSubmitLine =
    "{\"kind\": \"submit\", \"t\": 0, \"job\": 1, \"tenant\": 0, "
    "\"w_lo\": 0, \"w_hi\": 0, \"cause\": \"arrival\"}\n";

// Numbers used to go through strtod/strtoull without checking where
// parsing stopped: a word read as 0, trailing garbage was dropped, and a
// sign wrapped an unsigned field.
TEST(EventLog, MalformedNumbersAreRejectedNamingTheirLine) {
  const std::pair<std::string, std::string> edits[] = {
      {"\"t\": 0", "\"t\": zero"},
      {"\"job\": 1", "\"job\": 12x"},
      {"\"tenant\": 0", "\"tenant\": -1"},
      {"\"w_hi\": 0", "\"w_hi\": 4294967296"},
  };
  for (const auto& [field, bad] : edits) {
    std::string line = kSubmitLine;
    line.replace(line.find(field), field.size(), bad);
    std::istringstream in(std::string(kHeaderTwoEvents) + kSubmitLine + line);
    try {
      (void)EventLog::read_jsonl(in);
      ADD_FAILURE() << "accepted: " << line;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
          << e.what();
    }
  }
}

// The JSON short escapes used to decode as the bare letter ("\r" -> 'r').
TEST(EventLog, JsonShortEscapesInACauseDecode) {
  std::string line = kSubmitLine;
  line.replace(line.find("arrival"), 7, R"(a\rb \/ \t \u0001)");
  std::istringstream in(std::string(kHeaderTwoEvents) + kSubmitLine + line);
  const EventLog parsed = EventLog::read_jsonl(in);
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed.events()[1].cause, "a\rb / \t \x01");

  EventLog log;
  log.record(parsed.events()[1]);
  std::istringstream again(log.to_jsonl());
  EXPECT_EQ(EventLog::read_jsonl(again).events()[0].cause,
            parsed.events()[1].cause);
}

TEST(EventLog, ClearDropsEventsButKeepsContext) {
  EventLog log = sample_log();
  EXPECT_FALSE(log.empty());
  log.clear();
  EXPECT_TRUE(log.empty());
  EXPECT_EQ(log.context().policy, "backfill");
}

}  // namespace
}  // namespace wrht::obs
