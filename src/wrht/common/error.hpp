// Error types for the WRHT library.
//
// Invalid configurations (e.g. a group size larger than the ring, or a
// schedule whose RWA needs more wavelengths than the fiber carries) are
// reported with exceptions derived from wrht::Error so callers can
// distinguish library failures from std:: failures.
#pragma once

#include <stdexcept>
#include <string>

namespace wrht {

/// Base class of all library errors.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// A caller-supplied parameter is outside its valid domain.
class InvalidArgument : public Error {
 public:
  explicit InvalidArgument(const std::string& what) : Error(what) {}
};

/// A communication schedule cannot be realised on the given network
/// (wavelength exhaustion, conflicting lightpaths, unroutable flow, ...).
class InfeasibleSchedule : public Error {
 public:
  explicit InfeasibleSchedule(const std::string& what) : Error(what) {}
};

/// The optical power budget or BER constraint cannot be met.
class ConstraintViolation : public Error {
 public:
  explicit ConstraintViolation(const std::string& what) : Error(what) {}
};

/// Throws InvalidArgument with `message` unless `condition` holds.
///
/// The message is a literal so a passing check costs one branch and no
/// allocation. A check whose message is computed spells out the branch at
/// the call site instead: `if (!cond) throw InvalidArgument(...)`, which
/// builds the string only on the failure path.
inline void require(bool condition, const char* message) {
  if (!condition) throw InvalidArgument(message);
}

}  // namespace wrht
