#include "util/cli.hpp"

#include <algorithm>
#include <charconv>
#include <sstream>
#include <stdexcept>

namespace latticesched {

namespace {

/// std::from_chars over the whole of `text`: an empty token, a leftover
/// character or an out-of-range value throws naming `what`.
template <typename T>
T parse_whole(const std::string& text, const std::string& what) {
  T value{};
  const char* const end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc() || stop != end) {
    throw std::invalid_argument("bad " + what + " '" + text + "'");
  }
  return value;
}

}  // namespace

std::uint64_t parse_u64(const std::string& text, const std::string& what) {
  return parse_whole<std::uint64_t>(text, what);
}

std::int64_t parse_i64(const std::string& text, const std::string& what) {
  return parse_whole<std::int64_t>(text, what);
}

double parse_double(const std::string& text, const std::string& what) {
  return parse_whole<double>(text, what);
}

std::vector<std::string> split_csv_list(const std::string& csv) {
  std::vector<std::string> out;
  std::string token;
  std::istringstream is(csv);
  while (std::getline(is, token, ',')) {
    if (!token.empty()) out.push_back(token);
  }
  return out;
}

CliParser::CliParser(std::string program_description)
    : description_(std::move(program_description)) {}

void CliParser::add_flag(const std::string& name,
                         const std::string& default_value,
                         const std::string& help) {
  if (flags_.count(name) != 0) {
    throw std::invalid_argument("CliParser: duplicate flag --" + name);
  }
  flags_[name] = Flag{default_value, default_value, help, std::nullopt,
                      std::nullopt};
}

void CliParser::add_int_flag(const std::string& name,
                             std::int64_t default_value,
                             std::int64_t min_value,
                             const std::string& help) {
  add_flag(name, std::to_string(default_value), help);
  flags_[name].min_value = min_value;
}

void CliParser::add_int_flag(const std::string& name,
                             std::int64_t default_value,
                             std::int64_t min_value,
                             std::int64_t max_value,
                             const std::string& help) {
  add_int_flag(name, default_value, min_value, help);
  flags_[name].max_value = max_value;
}

void CliParser::parse(int argc, const char* const* argv) {
  // Unknown flags are collected and reported together, so every typo in
  // an invocation surfaces in one error instead of the first only.
  std::vector<std::string> unknown;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      help_requested_ = true;
      continue;
    }
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    std::string name = arg.substr(2);
    std::string value;
    bool have_value = false;
    if (const auto eq = name.find('='); eq != std::string::npos) {
      value = name.substr(eq + 1);
      name = name.substr(0, eq);
      have_value = true;
    }
    auto it = flags_.find(name);
    if (it == flags_.end()) {
      unknown.push_back("--" + name);
      continue;
    }
    if (!have_value) {
      // Registered booleans (default "true"/"false") keep the bare
      // `--flag` = true form; any other flag takes the next argument as
      // its value (`--flag value`), which stays unambiguous because a
      // value-flag can never be passed bare.
      const std::string& dflt = it->second.default_value;
      const bool is_boolean = dflt == "true" || dflt == "false";
      if (is_boolean) {
        value = "true";
      } else if (i + 1 < argc &&
                 std::string(argv[i + 1]).rfind("--", 0) != 0) {
        value = argv[++i];
      } else {
        // Refusing a `--`-prefixed token as the value turns
        // `--out --format json` into an error instead of silently
        // binding "--format" as the output path (values never start
        // with "--"; negative numbers are a single dash).
        throw std::invalid_argument("flag --" + name + " expects a value");
      }
    }
    it->second.value = value;
  }
  // Range-constrained integer flags (add_int_flag) are validated here so
  // their violations land in the SAME single error as the unknown flags.
  std::vector<std::string> problems;
  if (!unknown.empty()) {
    // Typo hints ride inside the same single message: each unknown flag
    // is followed by the nearest registered flag, when one is close
    // enough to plausibly be what the user meant.
    std::vector<std::string> registered;
    registered.reserve(flags_.size());
    for (const auto& [name, flag] : flags_) registered.push_back(name);
    std::string msg =
        unknown.size() == 1 ? "unknown flag " : "unknown flags: ";
    for (std::size_t i = 0; i < unknown.size(); ++i) {
      if (i > 0) msg += ", ";
      msg += unknown[i];
      const std::string hint =
          suggest_nearest(unknown[i].substr(2), registered);
      if (!hint.empty()) msg += " (did you mean --" + hint + "?)";
    }
    problems.push_back(std::move(msg));
  }
  for (const auto& [name, flag] : flags_) {
    if (!flag.min_value.has_value()) continue;
    bool ok = true;
    std::int64_t parsed = 0;
    try {
      parsed = parse_i64(flag.value, "--" + name);
    } catch (const std::invalid_argument&) {
      ok = false;
    }
    if (!ok) {
      problems.push_back("flag --" + name +
                         ": not an integer: " + flag.value);
    } else if (parsed < *flag.min_value) {
      problems.push_back("flag --" + name + ": must be >= " +
                         std::to_string(*flag.min_value) + ", got " +
                         flag.value);
    } else if (flag.max_value.has_value() && parsed > *flag.max_value) {
      problems.push_back("flag --" + name + ": must be <= " +
                         std::to_string(*flag.max_value) + ", got " +
                         flag.value);
    }
  }
  if (!problems.empty()) {
    std::string msg;
    for (std::size_t i = 0; i < problems.size(); ++i) {
      if (i > 0) msg += "; ";
      msg += problems[i];
    }
    throw std::invalid_argument(msg);
  }
}

const CliParser::Flag& CliParser::find(const std::string& name) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) {
    throw std::invalid_argument("CliParser: flag --" + name +
                                " was never registered");
  }
  return it->second;
}

std::string CliParser::get_string(const std::string& name) const {
  return find(name).value;
}

std::int64_t CliParser::get_int(const std::string& name) const {
  return parse_i64(find(name).value, "--" + name);
}

double CliParser::get_double(const std::string& name) const {
  return parse_double(find(name).value, "--" + name);
}

bool CliParser::get_bool(const std::string& name) const {
  const std::string& v = find(name).value;
  if (v == "true" || v == "1" || v == "yes") return true;
  if (v == "false" || v == "0" || v == "no" || v.empty()) return false;
  throw std::invalid_argument("flag --" + name + ": not a boolean: " + v);
}

std::string suggest_nearest(const std::string& name,
                            const std::vector<std::string>& candidates) {
  const auto edit_distance = [](const std::string& a, const std::string& b) {
    // Levenshtein with a rolling row; the inputs are flag-sized.
    std::vector<std::size_t> row(b.size() + 1);
    for (std::size_t j = 0; j <= b.size(); ++j) row[j] = j;
    for (std::size_t i = 1; i <= a.size(); ++i) {
      std::size_t diag = row[0];
      row[0] = i;
      for (std::size_t j = 1; j <= b.size(); ++j) {
        const std::size_t up = row[j];
        row[j] = std::min({row[j] + 1, row[j - 1] + 1,
                           diag + (a[i - 1] == b[j - 1] ? 0 : 1)});
        diag = up;
      }
    }
    return row[b.size()];
  };
  const std::size_t budget =
      std::max<std::size_t>(2, name.size() / 3);
  std::string best;
  std::size_t best_distance = budget + 1;
  for (const std::string& candidate : candidates) {
    const std::size_t d = edit_distance(name, candidate);
    if (d < best_distance) {
      best_distance = d;
      best = candidate;
    }
  }
  return best;
}

std::string CliParser::help_text() const {
  std::ostringstream os;
  os << description_ << "\n\nFlags:\n";
  for (const auto& [name, flag] : flags_) {
    os << "  --" << name << " (default: "
       << (flag.default_value.empty() ? "\"\"" : flag.default_value) << ")\n"
       << "      " << flag.help << "\n";
  }
  return os.str();
}

}  // namespace latticesched
