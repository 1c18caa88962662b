// Minimal command-line flag parser for the example programs and the
// latticesched driver.
//
// Supports `--name=value`, space-separated `--name value` (for flags
// whose default is not a boolean literal), and boolean `--name` forms.
// Unrecognized flags raise — with EVERY unknown flag listed in one error,
// so a mistyped invocation is fixed in one round trip instead of one flag
// at a time (silently using defaults is an easy way to invalidate an
// experiment).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace latticesched {

/// Splits "a,b,c" on commas into non-empty tokens ("" -> {}); the one
/// tokenizer behind backend lists and the driver's sweep flags.
std::vector<std::string> split_csv_list(const std::string& csv);

/// `text` as a decimal u64: digits only, no sign, whitespace or trailing
/// junk, no overflow.  Throws std::invalid_argument naming `what`.  The
/// one strict parse behind wire ids, JSON counters and fault plans.
std::uint64_t parse_u64(const std::string& text, const std::string& what);

/// parse_u64's signed form: an optional '-' then digits, nothing else.
std::int64_t parse_i64(const std::string& text, const std::string& what);

/// parse_u64's floating-point form: the whole token must be one decimal
/// or exponent number (or inf / nan) with no '+', whitespace or junk.
double parse_double(const std::string& text, const std::string& what);

/// The candidate closest to `name` by edit distance, or "" when nothing
/// is plausibly a typo (distance > max(2, |name| / 3)).  Ties resolve
/// to the earliest candidate, so registry order makes the suggestion
/// deterministic.  Drives the driver's "did you mean ...?" hints for
/// --scenario and --backends.
std::string suggest_nearest(const std::string& name,
                            const std::vector<std::string>& candidates);

class CliParser {
 public:
  CliParser(std::string program_description);

  /// Registers a flag with a default value and help text.
  void add_flag(const std::string& name, const std::string& default_value,
                const std::string& help);

  /// Registers an integer flag with an inclusive minimum.  parse()
  /// validates the supplied value and reports a violation (non-integer
  /// or below `min_value`) in the same single error that lists unknown
  /// flags, so `--workers 0 --bogys` is fixed in one round trip.
  void add_int_flag(const std::string& name, std::int64_t default_value,
                    std::int64_t min_value, const std::string& help);

  /// Range form: inclusive [min_value, max_value] (e.g. a TCP port is
  /// [1, 65535], so --port 0 and --port 65536 both land in the single
  /// joined parse error).
  void add_int_flag(const std::string& name, std::int64_t default_value,
                    std::int64_t min_value, std::int64_t max_value,
                    const std::string& help);

  /// Parses argv; throws std::invalid_argument on unknown flags or
  /// malformed input — unknown flags carry a "did you mean --...?" hint
  /// when a registered flag is within suggest_nearest's edit budget.
  /// Recognizes --help and sets help_requested().
  void parse(int argc, const char* const* argv);

  bool help_requested() const { return help_requested_; }
  std::string help_text() const;

  std::string get_string(const std::string& name) const;
  /// The value through parse_i64 / parse_double: a malformed value
  /// throws std::invalid_argument naming the flag ("bad --seed 'abc'").
  std::int64_t get_int(const std::string& name) const;
  double get_double(const std::string& name) const;
  bool get_bool(const std::string& name) const;

  /// Positional (non-flag) arguments, in order.
  const std::vector<std::string>& positional() const { return positional_; }

 private:
  struct Flag {
    std::string value;
    std::string default_value;
    std::string help;
    /// Inclusive bounds enforced at parse() time (add_int_flag).
    std::optional<std::int64_t> min_value;
    std::optional<std::int64_t> max_value;
  };
  std::string description_;
  std::map<std::string, Flag> flags_;
  std::vector<std::string> positional_;
  bool help_requested_ = false;
  const Flag& find(const std::string& name) const;
};

}  // namespace latticesched
