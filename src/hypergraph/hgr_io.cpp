#include "hypergraph/hgr_io.h"

#include <algorithm>
#include <charconv>
#include <climits>
#include <fstream>
#include <stdexcept>
#include <string_view>
#include <system_error>
#include <vector>

#include "hypergraph/builder.h"

namespace prop {
namespace {

/// Line reader with a running byte budget: every consumed line (comments
/// and blanks included — an attacker controls those too) counts toward
/// HgrLimits::max_bytes before any of its content is acted on.
class LineReader {
 public:
  LineReader(std::istream& in, std::uint64_t max_bytes)
      : in_(in), max_bytes_(max_bytes) {}

  /// Reads the next non-comment, non-blank line; returns false at EOF.
  bool next(std::string& line) {
    while (std::getline(in_, line)) {
      bytes_ += line.size() + 1;  // + the consumed newline
      if (max_bytes_ != 0 && bytes_ > max_bytes_) {
        throw std::runtime_error("hgr: payload exceeds max bytes (" +
                                 std::to_string(max_bytes_) + ")");
      }
      std::size_t i = 0;
      while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
      if (i == line.size() || line[i] == '%') continue;
      return true;
    }
    return false;
  }

 private:
  std::istream& in_;
  std::uint64_t max_bytes_;
  std::uint64_t bytes_ = 0;
};

bool is_digit(char c) noexcept { return c >= '0' && c <= '9'; }

/// One cursor over the numbers of a line, with the token rules of
/// operator>> in the "C" locale (DESIGN.md §4l has the full list):
///   * whitespace is any isspace character (" \t\v\f\r");
///   * tokens need no separator: a number ends at the first character
///     that cannot continue it, and the next read starts there, so "1+2"
///     is two pins and "12abc" is pin 12 followed by junk;
///   * a failed read leaves the cursor where that scan stopped, so
///     at_end() after it tells a clean end of line (only whitespace, or
///     a lone sign or overflowing digits at the very end) from junk.
class Tokens {
 public:
  explicit Tokens(std::string_view line)
      : p_(line.data()), end_(line.data() + line.size()) {}

  /// Reads an integer: an optional '+' or '-', then decimal digits.
  /// False when there is no number, with v unchanged, or when it
  /// overflows, with v = LLONG_MIN / LLONG_MAX and the cursor past all
  /// its digits.
  bool read(long long& v) {
    skip_space();
    if (p_ == end_) return false;
    const bool negative = *p_ == '-';
    const char* digits = p_ + (negative || *p_ == '+');
    if (digits == end_ || !is_digit(*digits)) {
      p_ = digits;
      return false;
    }
    // from_chars takes a '-' but no '+'.
    const auto [ptr, ec] = std::from_chars(negative ? p_ : digits, end_, v);
    p_ = ptr;
    if (ec == std::errc::result_out_of_range) {
      v = negative ? LLONG_MIN : LLONG_MAX;
      return false;
    }
    return true;
  }

  /// Reads a real: an optional sign, digits with at most one '.', then an
  /// optional exponent ('e' or 'E' after a digit, an optional sign,
  /// digits).  The whole scanned text must convert: "1e", "." and a lone
  /// sign fail, and so does a value beyond the range of double, including
  /// one that underflows to zero.  No inf, nan or hex form is scanned.
  bool read(double& v) {
    skip_space();
    if (p_ == end_) return false;
    const char* first = p_ + (*p_ == '+');
    const char* q = p_ + (*p_ == '+' || *p_ == '-');
    bool mantissa = false;
    bool point = false;
    bool exponent = false;
    for (; q != end_; ++q) {
      if (is_digit(*q)) {
        mantissa = true;
      } else if (*q == '.' && !point && !exponent) {
        point = true;
      } else if ((*q == 'e' || *q == 'E') && mantissa && !exponent) {
        exponent = true;
        if (q + 1 != end_ && (q[1] == '+' || q[1] == '-')) ++q;
      } else {
        break;
      }
    }
    p_ = q;
    const auto [ptr, ec] = std::from_chars(first, q, v);
    return ec == std::errc() && ptr == q;
  }

  /// Is there a further token (operator>>(std::string) succeeding)?
  bool more() {
    skip_space();
    return p_ != end_;
  }

  bool at_end() const noexcept { return p_ == end_; }

 private:
  void skip_space() noexcept {
    while (p_ != end_ && (*p_ == ' ' || (*p_ >= '\t' && *p_ <= '\r'))) ++p_;
  }

  const char* p_;
  const char* end_;
};

/// The header "E N [fmt]".  fmt is an int: a value beyond int's range is
/// clamped to it and reads as an unknown code when it ends the line.
struct Header {
  long long nets = 0;
  long long nodes = 0;
  int fmt = 0;
};

Header parse_header(std::string_view line) {
  Tokens tokens(line);
  Header h;
  if (!tokens.read(h.nets) || !tokens.read(h.nodes) || h.nets < 0 ||
      h.nodes < 0) {
    throw std::runtime_error("hgr: malformed header");
  }
  long long code = 0;
  const bool read = tokens.read(code);
  h.fmt = static_cast<int>(std::clamp<long long>(code, INT_MIN, INT_MAX));
  if (read && h.fmt == code) {
    if (tokens.more()) {
      throw std::runtime_error("hgr: malformed header (trailing junk)");
    }
  } else if (!tokens.at_end()) {
    throw std::runtime_error("hgr: malformed header");
  }
  return h;
}

}  // namespace

Hypergraph read_hgr(std::istream& in, std::string name,
                    const HgrLimits& limits) {
  LineReader reader(in, limits.max_bytes);
  std::string line;
  if (!reader.next(line)) {
    throw std::runtime_error("hgr: empty input");
  }
  const auto [num_nets, num_nodes, fmt] = parse_header(line);
  const bool weighted_nets = (fmt == 1 || fmt == 11);
  const bool weighted_nodes = (fmt == 10 || fmt == 11);
  if (fmt != 0 && !weighted_nets && !weighted_nodes) {
    throw std::runtime_error("hgr: unknown fmt code");
  }
  // All header-driven caps fire before HypergraphBuilder allocates anything:
  // a hostile "999999999999 999999999999" header must be rejected by
  // arithmetic alone.  The id-width cap holds unconditionally (NodeId/NetId
  // are 32-bit); the configurable limits only when nonzero.
  if (limits.max_nodes != 0 &&
      static_cast<std::uint64_t>(num_nodes) > limits.max_nodes) {
    throw std::runtime_error("hgr: node count " + std::to_string(num_nodes) +
                             " exceeds limit " +
                             std::to_string(limits.max_nodes));
  }
  if (limits.max_nets != 0 &&
      static_cast<std::uint64_t>(num_nets) > limits.max_nets) {
    throw std::runtime_error("hgr: net count " + std::to_string(num_nets) +
                             " exceeds limit " + std::to_string(limits.max_nets));
  }
  constexpr long long kMaxIdWidth = 0x7fffffffLL;
  if (num_nodes > kMaxIdWidth || num_nets > kMaxIdWidth) {
    throw std::runtime_error("hgr: header counts exceed 31-bit id range");
  }

  HypergraphBuilder b(static_cast<NodeId>(num_nodes));
  b.set_name(std::move(name));
  std::vector<NodeId> pins;
  std::uint64_t total_pins = 0;
  for (long long n = 0; n < num_nets; ++n) {
    if (!reader.next(line)) {
      throw std::runtime_error("hgr: truncated net list");
    }
    Tokens tokens(line);
    double cost = 1.0;
    if (weighted_nets && (!tokens.read(cost) || cost <= 0.0)) {
      throw std::runtime_error("hgr: bad net weight");
    }
    pins.clear();
    long long pin = 0;
    while (tokens.read(pin)) {
      if (pin < 1 || pin > num_nodes) {
        throw std::runtime_error("hgr: pin id out of range");
      }
      if (limits.max_pins != 0 && ++total_pins > limits.max_pins) {
        throw std::runtime_error("hgr: pin count exceeds limit " +
                                 std::to_string(limits.max_pins));
      }
      pins.push_back(static_cast<NodeId>(pin - 1));
    }
    if (!tokens.at_end()) {
      throw std::runtime_error("hgr: junk token in net line");
    }
    if (pins.empty()) {
      throw std::runtime_error("hgr: net with no pins");
    }
    b.add_net(pins, cost);
  }
  if (weighted_nodes) {
    // Hypergraph::total_node_size() must fit its int64.
    long long total_size = 0;
    for (long long u = 0; u < num_nodes; ++u) {
      if (!reader.next(line)) {
        throw std::runtime_error("hgr: truncated node weights");
      }
      Tokens tokens(line);
      long long w = 0;
      if (!tokens.read(w) || w <= 0) {
        throw std::runtime_error("hgr: bad node weight");
      }
      if (tokens.more()) {
        throw std::runtime_error("hgr: junk token after node weight");
      }
      if (w > LLONG_MAX - total_size) {
        throw std::runtime_error("hgr: total node weight exceeds 64 bits");
      }
      total_size += w;
      b.set_node_size(static_cast<NodeId>(u), w);
    }
  }
  return std::move(b).build();
}

Hypergraph read_hgr_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("hgr: cannot open " + path);
  return read_hgr(in, path);
}

namespace {

/// A net cost as the stream's default %g form when that reads back as the
/// same double, else with enough digits that it does: costs round-trip
/// exactly, and every cost that already did is written as before.
void write_cost(std::ostream& out, double cost) {
  char buf[32];
  char* end =
      std::to_chars(buf, buf + sizeof buf, cost, std::chars_format::general, 6)
          .ptr;
  double back = 0.0;
  std::from_chars(buf, end, back);
  if (back != cost) end = std::to_chars(buf, buf + sizeof buf, cost).ptr;
  out.write(buf, end - buf);
}

}  // namespace

void write_hgr(const Hypergraph& g, std::ostream& out) {
  const bool weighted_nets = !g.unit_net_costs();
  const bool weighted_nodes = !g.unit_node_sizes();
  int fmt = 0;
  if (weighted_nets) fmt += 1;
  if (weighted_nodes) fmt += 10;
  out << g.num_nets() << ' ' << g.num_nodes();
  if (fmt != 0) out << ' ' << (fmt < 10 ? "1" : (fmt == 10 ? "10" : "11"));
  out << '\n';
  for (NetId n = 0; n < g.num_nets(); ++n) {
    if (weighted_nets) {
      write_cost(out, g.net_cost(n));
      out << ' ';
    }
    bool first = true;
    for (const NodeId u : g.pins_of(n)) {
      if (!first) out << ' ';
      out << (u + 1);
      first = false;
    }
    out << '\n';
  }
  if (weighted_nodes) {
    for (NodeId u = 0; u < g.num_nodes(); ++u) out << g.node_size(u) << '\n';
  }
  // A full disk or broken pipe surfaces as stream failbits, not exceptions;
  // without this check a truncated file would pass silently.
  out.flush();
  if (!out) {
    throw std::runtime_error("hgr: write failed (stream error after flush)");
  }
}

void write_hgr_file(const Hypergraph& g, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("hgr: cannot write " + path);
  write_hgr(g, out);
  out.close();
  if (!out) throw std::runtime_error("hgr: write failed for " + path);
}

}  // namespace prop
