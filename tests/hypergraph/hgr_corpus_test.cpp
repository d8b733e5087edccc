// The .hgr reader's behaviour pinned input by input, plus a seeded mutation
// fuzz of its contract.
//
// Each golden is what the reader made of its input when it still parsed
// every line with its own std::istringstream: every pin, cost and size of
// the graph, or the exact error message (one input, whose node weights
// overflow int64 in total, is now rejected).  The from_chars cursor that
// replaced that parser must agree on all of them, including the corners of
// operator>> it keeps (DESIGN.md §4l): a leading '+', any isspace
// separator, a number acted on before the rest of its token fails, and a
// lone sign or overflowing digits that end a line.
#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "hypergraph/builder.h"
#include "hypergraph/generator.h"
#include "hypergraph/hgr_io.h"
#include "testutil.h"
#include "util/rng.h"

namespace prop {
namespace {

using namespace std::string_view_literals;

/// What read_hgr makes of `text`: every pin, cost and size of the graph,
/// or the exact error message.
std::string outcome(std::string_view text) {
  std::istringstream in{std::string(text)};
  try {
    const Hypergraph g = read_hgr(in, "corpus");
    if (g.name() != "corpus") return "wrong name " + g.name();
    std::ostringstream out;
    out << g.num_nodes() << " nodes;";
    for (NetId n = 0; n < g.num_nets(); ++n) {
      out << " {";
      for (const NodeId u : g.pins_of(n)) out << ' ' << u + 1;
      char cost[32];
      std::snprintf(cost, sizeof cost, "%.17g", g.net_cost(n));
      out << " }*" << cost;
    }
    out << "; sizes";
    for (NodeId u = 0; u < g.num_nodes(); ++u) out << ' ' << g.node_size(u);
    return out.str();
  } catch (const std::runtime_error& e) {
    return std::string("error: ") + e.what();
  }
}

struct Golden {
  const char* label;
  std::string_view input;
  const char* outcome;
};

const Golden kCorpus[] = {
    {"plain",
     "2 4\n1 2\n2 3 4\n"sv,
     "4 nodes; { 1 2 }*1 { 2 3 4 }*1; sizes 1 1 1 1"},
    {"leading comment and blanks",
     "% c\n\n   \n\t% c2\n2 3\n1 2\n  \n% mid\n2 3\n"sv,
     "3 nodes; { 1 2 }*1 { 2 3 }*1; sizes 1 1 1"},
    {"header leading space",
     "  2 3\n1 2\n2 3\n"sv,
     "3 nodes; { 1 2 }*1 { 2 3 }*1; sizes 1 1 1"},
    {"header tab separated",
     "2\t3\n1 2\n2 3\n"sv,
     "3 nodes; { 1 2 }*1 { 2 3 }*1; sizes 1 1 1"},
    {"header plus counts",
     "+2 +3\n1 2\n2 3\n"sv,
     "3 nodes; { 1 2 }*1 { 2 3 }*1; sizes 1 1 1"},
    {"header minus zero nets",
     "-0 3\n"sv,
     "3 nodes;; sizes 1 1 1"},
    {"empty graph",
     "0 0\n"sv,
     "0 nodes;; sizes"},
    {"header only nets",
     "2\n1 2\n"sv,
     "error: hgr: malformed header"},
    {"header 2 4 1x",
     "2 4 1x\n1 2\n3 4\n"sv,
     "error: hgr: malformed header (trailing junk)"},
    {"header 2 4x",
     "2 4x\n1 2\n3 4\n"sv,
     "error: hgr: malformed header"},
    {"header fmt plus",
     "1 3 +\n1 2\n"sv,
     "3 nodes; { 1 2 }*1; sizes 1 1 1"},
    {"header fmt minus",
     "1 3 -\n1 2\n"sv,
     "3 nodes; { 1 2 }*1; sizes 1 1 1"},
    {"header fmt plus space",
     "1 3 + \n1 2\n"sv,
     "error: hgr: malformed header"},
    {"header fmt 01",
     "1 3 01\n2 1 2\n"sv,
     "3 nodes; { 1 2 }*2; sizes 1 1 1"},
    {"header fmt 010",
     "1 3 010\n1 2\n1\n2\n3\n"sv,
     "3 nodes; { 1 2 }*1; sizes 1 2 3"},
    {"header fmt +11",
     "1 3 +11\n2 1 2\n1\n2\n3\n"sv,
     "3 nodes; { 1 2 }*2; sizes 1 2 3"},
    {"header fmt -0",
     "1 3 -0\n1 2\n"sv,
     "3 nodes; { 1 2 }*1; sizes 1 1 1"},
    {"header fmt int overflow at end",
     "1 3 99999999999\n1 2\n"sv,
     "error: hgr: unknown fmt code"},
    {"header fmt int overflow then space",
     "1 3 99999999999 \n1 2\n"sv,
     "error: hgr: malformed header"},
    {"header fmt negative overflow",
     "1 3 -99999999999\n1 2\n"sv,
     "error: hgr: unknown fmt code"},
    {"header fmt long overflow",
     "1 3 99999999999999999999\n1 2\n"sv,
     "error: hgr: unknown fmt code"},
    {"header fmt 1.5",
     "1 3 1.5\n2 1 2\n"sv,
     "error: hgr: malformed header (trailing junk)"},
    {"header fmt comment",
     "1 3 1 % weighted\n2 1 2\n"sv,
     "error: hgr: malformed header (trailing junk)"},
    {"header count overflow",
     "99999999999999999999 3\n1 2\n"sv,
     "error: hgr: malformed header"},
    {"header node overflow",
     "1 99999999999999999999\n1 2\n"sv,
     "error: hgr: malformed header"},
    {"header 1.5 nets",
     "1.5 3\n1 2\n"sv,
     "error: hgr: malformed header"},
    {"header cr only line",
     "\r\n1 3\n1 2\n"sv,
     "error: hgr: malformed header"},
    {"header vertical tab line",
     "\v% not a comment\n1 3\n1 2\n"sv,
     "error: hgr: malformed header"},
    {"header form feed sep",
     "1\f3\n1 2\n"sv,
     "3 nodes; { 1 2 }*1; sizes 1 1 1"},
    {"header plus minus",
     "+-1 3\n1 2\n"sv,
     "error: hgr: malformed header"},
    {"pin +5",
     "1 5\n+5 1\n"sv,
     "5 nodes; { 5 1 }*1; sizes 1 1 1 1 1"},
    {"pin 0abc",
     "1 3\n0abc\n"sv,
     "error: hgr: pin id out of range"},
    {"pin 1.5",
     "1 3\n1.5 2\n"sv,
     "error: hgr: junk token in net line"},
    {"pin 5.5 out of range",
     "1 3\n5.5\n"sv,
     "error: hgr: pin id out of range"},
    {"pin 12abc in range",
     "1 20\n12abc\n"sv,
     "error: hgr: junk token in net line"},
    {"pin 12abc out of range",
     "1 3\n12abc\n"sv,
     "error: hgr: pin id out of range"},
    {"pin overflow at end",
     "1 3\n1 99999999999999999999\n"sv,
     "3 nodes; { 1 }*1; sizes 1 1 1"},
    {"pin overflow mid line",
     "1 3\n99999999999999999999 1\n"sv,
     "error: hgr: junk token in net line"},
    {"pin overflow then space",
     "1 3\n1 99999999999999999999 \n"sv,
     "error: hgr: junk token in net line"},
    {"pin negative overflow at end",
     "1 3\n1 -99999999999999999999\n"sv,
     "3 nodes; { 1 }*1; sizes 1 1 1"},
    {"pin 1+2",
     "1 3\n1+2\n"sv,
     "3 nodes; { 1 2 }*1; sizes 1 1 1"},
    {"pin 1-2",
     "1 3\n1-2\n"sv,
     "error: hgr: pin id out of range"},
    {"pin trailing plus",
     "1 3\n1 2 +\n"sv,
     "3 nodes; { 1 2 }*1; sizes 1 1 1"},
    {"pin trailing minus",
     "1 3\n1 2 -\n"sv,
     "3 nodes; { 1 2 }*1; sizes 1 1 1"},
    {"pin trailing plus x",
     "1 3\n1 2 +x\n"sv,
     "error: hgr: junk token in net line"},
    {"pin plus only",
     "1 3\n+\n"sv,
     "error: hgr: net with no pins"},
    {"pin minus minus",
     "1 3\n--1\n"sv,
     "error: hgr: junk token in net line"},
    {"pin plus minus",
     "1 3\n+-1\n"sv,
     "error: hgr: junk token in net line"},
    {"pin 007",
     "1 9\n007 2\n"sv,
     "9 nodes; { 7 2 }*1; sizes 1 1 1 1 1 1 1 1 1"},
    {"pin 0x5",
     "1 9\n0x5\n"sv,
     "error: hgr: pin id out of range"},
    {"pin duplicates",
     "1 3\n1 1 2 1\n"sv,
     "3 nodes; { 1 2 }*1; sizes 1 1 1"},
    {"pin 2^32+1",
     "1 3\n4294967297\n"sv,
     "error: hgr: pin id out of range"},
    {"pin nul byte",
     "1 3\n1 2\000\n"sv,
     "error: hgr: junk token in net line"},
    {"pin high byte",
     "1 3\n1 2\240\n"sv,
     "error: hgr: junk token in net line"},
    {"pin high byte first",
     "1 3\n\240 1 2\n"sv,
     "error: hgr: junk token in net line"},
    {"net cr only line",
     "2 3\n1 2\n\r\n"sv,
     "error: hgr: net with no pins"},
    {"net vt ff separators",
     "2 3\n1\v2\n2\f3\n"sv,
     "3 nodes; { 1 2 }*1 { 2 3 }*1; sizes 1 1 1"},
    {"net leading vt",
     "1 3\n\v1 2\n"sv,
     "3 nodes; { 1 2 }*1; sizes 1 1 1"},
    {"net trailing spaces tabs",
     "1 3\n1 2 \t \n"sv,
     "3 nodes; { 1 2 }*1; sizes 1 1 1"},
    {"crlf plain",
     "2 3\r\n1 2\r\n2 3\r\n"sv,
     "3 nodes; { 1 2 }*1 { 2 3 }*1; sizes 1 1 1"},
    {"crlf weighted both",
     "1 3 11\r\n2 1 2 3\r\n4\r\n5\r\n6\r\n"sv,
     "3 nodes; { 1 2 3 }*2; sizes 4 5 6"},
    {"missing final newline",
     "2 3\n1 2\n2 3"sv,
     "3 nodes; { 1 2 }*1 { 2 3 }*1; sizes 1 1 1"},
    {"missing final newline weights",
     "1 3 10\n1 2 3\n1\n2\n3"sv,
     "3 nodes; { 1 2 3 }*1; sizes 1 2 3"},
    {"truncated net list",
     "2 3\n1 2\n"sv,
     "error: hgr: truncated net list"},
    {"extra lines ignored",
     "1 3\n1 2\n2 3\njunk\n"sv,
     "3 nodes; { 1 2 }*1; sizes 1 1 1"},
    {"weight inf",
     "1 3 1\ninf 1 2\n"sv,
     "error: hgr: bad net weight"},
    {"weight nan",
     "1 3 1\nnan 1 2\n"sv,
     "error: hgr: bad net weight"},
    {"weight 1e999",
     "1 3 1\n1e999 1 2\n"sv,
     "error: hgr: bad net weight"},
    {"weight 2.5abc",
     "1 3 1\n2.5abc 1 2\n"sv,
     "error: hgr: junk token in net line"},
    {"weight 2.5 abc",
     "1 3 1\n2.5 abc\n"sv,
     "error: hgr: junk token in net line"},
    {"weight 1e-400",
     "1 3 1\n1e-400 1 2\n"sv,
     "error: hgr: bad net weight"},
    {"weight 1e-310",
     "1 3 1\n1e-310 1 2\n"sv,
     "3 nodes; { 1 2 }*9.9999999999999694e-311; sizes 1 1 1"},
    {"weight +2.5",
     "1 3 1\n+2.5 1 2\n"sv,
     "3 nodes; { 1 2 }*2.5; sizes 1 1 1"},
    {"weight .5",
     "1 3 1\n.5 1 2\n"sv,
     "3 nodes; { 1 2 }*0.5; sizes 1 1 1"},
    {"weight 5.",
     "1 3 1\n5. 1 2\n"sv,
     "3 nodes; { 1 2 }*5; sizes 1 1 1"},
    {"weight 5.e1",
     "1 3 1\n5.e1 1 2\n"sv,
     "3 nodes; { 1 2 }*50; sizes 1 1 1"},
    {"weight 1E2",
     "1 3 1\n1E2 1 2\n"sv,
     "3 nodes; { 1 2 }*100; sizes 1 1 1"},
    {"weight 1e+2",
     "1 3 1\n1e+2 1 2\n"sv,
     "3 nodes; { 1 2 }*100; sizes 1 1 1"},
    {"weight 1e-2",
     "1 3 1\n1e-2 1 2\n"sv,
     "3 nodes; { 1 2 }*0.01; sizes 1 1 1"},
    {"weight 1e",
     "1 3 1\n1e 1 2\n"sv,
     "error: hgr: bad net weight"},
    {"weight 1e+",
     "1 3 1\n1e+ 1 2\n"sv,
     "error: hgr: bad net weight"},
    {"weight 1ex",
     "1 3 1\n1ex 1 2\n"sv,
     "error: hgr: bad net weight"},
    {"weight dot",
     "1 3 1\n. 1 2\n"sv,
     "error: hgr: bad net weight"},
    {"weight plus",
     "1 3 1\n+ 1 2\n"sv,
     "error: hgr: bad net weight"},
    {"weight -0",
     "1 3 1\n-0 1 2\n"sv,
     "error: hgr: bad net weight"},
    {"weight 0x10",
     "1 3 1\n0x10 1 2\n"sv,
     "error: hgr: bad net weight"},
    {"weight 2.5.5",
     "1 3 1\n2.5.5 1 2\n"sv,
     "error: hgr: junk token in net line"},
    {"weight 2.5-3",
     "1 3 1\n2.5-3 1\n"sv,
     "error: hgr: pin id out of range"},
    {"weight 2.5+3",
     "1 3 1\n2.5+3 1\n"sv,
     "3 nodes; { 3 1 }*2.5; sizes 1 1 1"},
    {"weight 1e5e3",
     "1 3 1\n1e5e3 1 2\n"sv,
     "error: hgr: junk token in net line"},
    {"weight 00012.5",
     "1 3 1\n00012.5 1 2\n"sv,
     "3 nodes; { 1 2 }*12.5; sizes 1 1 1"},
    {"weight long mantissa",
     "1 3 1\n0.1000000000000000055511151231257827021181583404541015625 1 2\n"sv,
     "3 nodes; { 1 2 }*0.10000000000000001; sizes 1 1 1"},
    {"weight 1.7976931348623159e308",
     "1 3 1\n1.7976931348623159e308 1 2\n"sv,
     "error: hgr: bad net weight"},
    {"weight max double",
     "1 3 1\n1.7976931348623157e308 1 2\n"sv,
     "3 nodes; { 1 2 }*1.7976931348623157e+308; sizes 1 1 1"},
    {"weight 2.4e-324",
     "1 3 1\n2.4e-324 1 2\n"sv,
     "error: hgr: bad net weight"},
    {"weight 4.9e-324",
     "1 3 1\n4.9e-324 1 2\n"sv,
     "3 nodes; { 1 2 }*4.9406564584124654e-324; sizes 1 1 1"},
    {"weight exponent digits",
     "1 3 1\n1e0000000000000000000000005 1 2\n"sv,
     "3 nodes; { 1 2 }*100000; sizes 1 1 1"},
    {"weight only",
     "1 3 1\n2.5\n"sv,
     "error: hgr: net with no pins"},
    {"weight then plus",
     "1 3 1\n2.5+\n"sv,
     "error: hgr: net with no pins"},
    {"weight bad",
     "1 3 1\nbad 1 2\n"sv,
     "error: hgr: bad net weight"},
    {"weight negative",
     "1 3 1\n-2 1 2\n"sv,
     "error: hgr: bad net weight"},
    {"weight zero",
     "1 3 1\n0 1 2\n"sv,
     "error: hgr: bad net weight"},
    {"weight infinity word",
     "1 3 1\ninfinity 1 2\n"sv,
     "error: hgr: bad net weight"},
    {"node weight 5x",
     "1 3 10\n1 2 3\n5x\n1\n1\n"sv,
     "error: hgr: junk token after node weight"},
    {"node weight +5",
     "1 3 10\n1 2 3\n+5\n1\n1\n"sv,
     "3 nodes; { 1 2 3 }*1; sizes 5 1 1"},
    {"node weight 1.5",
     "1 3 10\n1 2 3\n1.5\n1\n1\n"sv,
     "error: hgr: junk token after node weight"},
    {"node weight cr",
     "1 3 10\n1 2 3\n5\r\n6\r\n7\r\n"sv,
     "3 nodes; { 1 2 3 }*1; sizes 5 6 7"},
    {"node weight leading space",
     "1 3 10\n1 2 3\n 5\n\t6\n7 \n"sv,
     "3 nodes; { 1 2 3 }*1; sizes 5 6 7"},
    {"node weight 0x5",
     "1 3 10\n1 2 3\n0x5\n1\n1\n"sv,
     "error: hgr: bad node weight"},
    {"node weight -0",
     "1 3 10\n1 2 3\n-0\n1\n1\n"sv,
     "error: hgr: bad node weight"},
    {"node weight plus",
     "1 3 10\n1 2 3\n+\n1\n1\n"sv,
     "error: hgr: bad node weight"},
    // The stream parser accepted this one, and the graph's total size
    // overflowed int64: the only outcome that differs on purpose.
    {"node weight max",
     "1 3 10\n1 2 3\n9223372036854775807\n1\n1\n"sv,
     "error: hgr: total node weight exceeds 64 bits"},
    {"node weights summing to int64 max",
     "1 3 10\n1 2 3\n9223372036854775805\n1\n1\n"sv,
     "3 nodes; { 1 2 3 }*1; sizes 9223372036854775805 1 1"},
    {"node weight overflow",
     "1 3 10\n1 2 3\n9223372036854775808\n1\n1\n"sv,
     "error: hgr: bad node weight"},
    {"node weight two tokens",
     "1 3 10\n1 2 3\n5 6\n1\n1\n"sv,
     "error: hgr: junk token after node weight"},
    {"node weight 5+",
     "1 3 10\n1 2 3\n5+\n1\n1\n"sv,
     "error: hgr: junk token after node weight"},
    {"node weight vt",
     "1 3 10\n1 2 3\n5\v\n1\n1\n"sv,
     "3 nodes; { 1 2 3 }*1; sizes 5 1 1"},
    {"node weight cr only",
     "1 3 10\n1 2 3\n\r\n1\n1\n"sv,
     "error: hgr: bad node weight"},
    {"node weight nul",
     "1 3 10\n1 2 3\n5\000\n1\n1\n"sv,
     "error: hgr: junk token after node weight"},
    {"node weights truncated",
     "1 3 10\n1 2 3\n5\n1\n"sv,
     "error: hgr: truncated node weights"},
    {"empty input",
     ""sv,
     "error: hgr: empty input"},
    {"comment-only input",
     "% only a comment\n"sv,
     "error: hgr: empty input"},
    {"non-numeric header",
     "nets nodes\n"sv,
     "error: hgr: malformed header"},
    {"negative net count",
     "-1 4\n"sv,
     "error: hgr: malformed header"},
    {"negative node count",
     "2 -4\n"sv,
     "error: hgr: malformed header"},
    {"header trailing junk",
     "2 4 1 extra\n1 2\n3 4\n"sv,
     "error: hgr: malformed header (trailing junk)"},
    {"non-numeric fmt",
     "2 4 x\n1 2\n3 4\n"sv,
     "error: hgr: malformed header"},
    {"unknown fmt code",
     "1 2 7\n1 2\n"sv,
     "error: hgr: unknown fmt code"},
    {"pin out of range (high)",
     "1 2\n1 5\n"sv,
     "error: hgr: pin id out of range"},
    {"pin out of range (zero)",
     "1 2\n0 1\n"sv,
     "error: hgr: pin id out of range"},
    {"negative pin id",
     "1 2\n-3 1\n"sv,
     "error: hgr: pin id out of range"},
    {"junk token in net line",
     "1 3\n1 2 oops\n"sv,
     "error: hgr: junk token in net line"},
    {"net with weight but no pins",
     "1 3 1\n2.5\n"sv,
     "error: hgr: net with no pins"},
    {"huge node count",
     "1 1000000000000000000\n1 2\n"sv,
     "error: hgr: header counts exceed 31-bit id range"},
    {"huge net count",
     "1000000000000000000 4\n1 2\n"sv,
     "error: hgr: header counts exceed 31-bit id range"},
    {"31-bit edge",
     "1 2147483648\n1 2\n"sv,
     "error: hgr: header counts exceed 31-bit id range"},
};

TEST(HgrIoCorpus, MatchesRecordedOutcomes) {
  for (const Golden& c : kCorpus) {
    EXPECT_EQ(outcome(c.input), c.outcome) << c.label;
  }
}

/// A circuit with fractional net costs (one of them 1/3, which needs all
/// 17 digits) and node sizes 1-3, so every field of the format is fuzzed.
Hypergraph weighted_circuit() {
  const Hypergraph base = generate_circuit({"fz", 40, 50, 160}, 5);
  HypergraphBuilder b(base.num_nodes());
  for (NetId n = 0; n < base.num_nets(); ++n) {
    const double cost = n == 0 ? 1.0 / 3.0 : 0.25 * (1 + n % 12);
    b.add_net(base.pins_of(n), cost);
  }
  for (NodeId u = 0; u < base.num_nodes(); ++u) {
    b.set_node_size(u, 1 + u % 3);
  }
  return std::move(b).build();
}

std::string hgr_text(const Hypergraph& g) {
  std::ostringstream out;
  write_hgr(g, out);
  return out.str();
}

/// One random edit: overwrite, insert or erase a byte, truncate, or
/// splice in the tail of another seed.
void mutate(std::string& text, const std::vector<std::string>& seeds,
            Rng& rng) {
  static constexpr std::string_view kBytes =
      "0123456789 \t\r\v\f\n+-.eEx%\0\xa0"sv;
  const std::size_t at = rng.bounded(text.size() + 1);
  const char byte = rng.chance(0.8)
                        ? kBytes[rng.bounded(kBytes.size())]
                        : static_cast<char>(rng.bounded(256));
  switch (rng.bounded(5)) {
    case 0:
      if (at < text.size()) text[at] = byte;
      break;
    case 1:
      text.insert(text.begin() + static_cast<std::ptrdiff_t>(at), byte);
      break;
    case 2:
      if (at < text.size()) text.erase(at, 1);
      break;
    case 3:
      text.resize(at);
      break;
    default: {
      const std::string& other = seeds[rng.bounded(seeds.size())];
      text = text.substr(0, at) + other.substr(rng.bounded(other.size() + 1));
    }
  }
}

/// Every input either throws a std::runtime_error whose message starts
/// "hgr:" or yields a graph that write_hgr/read_hgr reproduce exactly.
/// Caps keep a mutated header from asking for a huge graph.
TEST(HgrIoFuzz, MutantsThrowHgrErrorsOrRoundTripExactly) {
  std::vector<std::string> seeds;
  for (const Golden& c : kCorpus) seeds.emplace_back(c.input);
  seeds.push_back(hgr_text(generate_circuit({"fz", 60, 70, 230}, 3)));
  seeds.push_back(hgr_text(weighted_circuit()));
  HgrLimits limits;
  limits.max_nodes = 1 << 12;
  limits.max_nets = 1 << 12;
  limits.max_pins = 1 << 14;
  limits.max_bytes = 1 << 16;

  Rng rng(0x5eedf022);
  constexpr int kMutants = 20000;
  int accepted = 0;
  for (int i = 0; i < kMutants; ++i) {
    std::string text = seeds[rng.bounded(seeds.size())];
    const int edits = 1 + static_cast<int>(rng.bounded(4));
    for (int e = 0; e < edits; ++e) mutate(text, seeds, rng);
    SCOPED_TRACE(::testing::PrintToString(text));
    std::istringstream in(text);
    Hypergraph g;
    try {
      g = read_hgr(in, "fuzz", limits);
    } catch (const std::runtime_error& e) {
      ASSERT_EQ(std::string_view(e.what()).substr(0, 4), "hgr:") << e.what();
      continue;
    }
    ++accepted;
    std::istringstream back(hgr_text(g));
    ASSERT_NO_FATAL_FAILURE(testing::expect_same_graph(g, read_hgr(back)));
  }
  // Both outcomes must be well represented for the fuzz to mean anything.
  EXPECT_GT(accepted, kMutants / 20);
  EXPECT_LT(accepted, kMutants - kMutants / 20);
}

}  // namespace
}  // namespace prop
