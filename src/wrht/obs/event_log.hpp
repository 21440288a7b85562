// Structured, schema-versioned event log for the shared-fabric service.
//
// Every service transition — submit, admit, grant, start, complete,
// preempt, retune — is one ServiceEvent carrying the virtual timestamp,
// the job and tenant, the wavelength lease [w_lo, w_hi), and a free-form
// cause ("policy=backfill", "alg=wrht", ...). The log serializes as JSONL
// ("svc-events-1"): a header line with the run context, then one object
// per event in record order. Two properties make the file a first-class
// artifact rather than a debug dump:
//
//   * Deterministic and byte-stable: a (config, seed) pair produces a
//     byte-identical file run-to-run (pinned by the replay-determinism
//     tests), so event logs diff cleanly across code changes.
//   * Lossless timestamps: times print with round-trip precision (17
//     significant digits), so read_jsonl() reconstructs the exact doubles
//     and an event-log replay reproduces the live ServiceReport aggregates
//     bit-for-bit (gated by bench_svc_telemetry).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "wrht/common/units.hpp"

namespace wrht::obs {

struct ServiceEvent {
  enum class Kind : std::uint8_t {
    kSubmit,    ///< job offered to the service (arrival)
    kAdmit,     ///< admission policy selected the job
    kPreempt,   ///< job pushed back to the queue (reserved; no policy
                ///< currently preempts)
    kGrant,     ///< wavelength slice allocated as a lease
    kStart,     ///< service begins on the granted slice
    kComplete,  ///< job finished; slice released
    kRetune,    ///< granted lanes changed tenant hands (MRRs retuned)
  };

  Kind kind = Kind::kSubmit;
  Seconds time{0.0};
  std::uint64_t job = 0;
  std::uint32_t tenant = 0;
  /// Leased slice [w_lo, w_hi); both zero before a slice exists.
  std::uint32_t w_lo = 0;
  std::uint32_t w_hi = 0;
  std::string cause;

  friend bool operator==(const ServiceEvent&, const ServiceEvent&) = default;
};

[[nodiscard]] std::string to_string(ServiceEvent::Kind kind);
/// Inverse of to_string(); throws InvalidArgument for unknown names.
[[nodiscard]] ServiceEvent::Kind event_kind_from_string(
    const std::string& name);

class EventLog {
 public:
  static constexpr const char* kSchema = "svc-events-1";

  /// Run context carried by the JSONL header line; replay needs the
  /// fabric width to rebuild utilization.
  struct Context {
    std::uint32_t fabric_wavelengths = 0;
    std::string policy;
    std::uint64_t seed = 0;

    friend bool operator==(const Context&, const Context&) = default;
  };

  void set_context(Context context) { context_ = std::move(context); }
  [[nodiscard]] const Context& context() const { return context_; }

  void record(ServiceEvent event) { events_.push_back(std::move(event)); }
  /// Pre-sizes the event storage; a service that knows its job count can
  /// avoid mid-run reallocation (~6 events per job).
  void reserve(std::size_t n) { events_.reserve(n); }
  [[nodiscard]] const std::vector<ServiceEvent>& events() const {
    return events_;
  }
  [[nodiscard]] std::size_t size() const { return events_.size(); }
  [[nodiscard]] bool empty() const { return events_.empty(); }
  void clear() { events_.clear(); }

  /// Header line + one JSON object per event, in record order.
  void write_jsonl(std::ostream& out) const;
  /// write_jsonl() to `path`; throws wrht::Error if the file cannot open.
  void write_file(const std::string& path) const;
  /// Serialized form as a string (what write_jsonl emits) — the
  /// replay-determinism tests compare these byte-for-byte.
  [[nodiscard]] std::string to_jsonl() const;

  /// Parses a stream produced by write_jsonl(), each line through
  /// json::Value::parse. Throws wrht::Error "EventLog: line L: ..." on a
  /// foreign schema, malformed JSON, a missing or mistyped field, a time
  /// reversal, or an event count that disagrees with the header.
  [[nodiscard]] static EventLog read_jsonl(std::istream& in);
  [[nodiscard]] static EventLog read_file(const std::string& path);

 private:
  Context context_;
  std::vector<ServiceEvent> events_;
};

}  // namespace wrht::obs
