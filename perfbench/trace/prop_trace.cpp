// prop_trace — the benchmark's input generator and traced-replay tool.
//
//   prop_trace gen --nodes N --seed S --out F.hgr     # seeded synthetic
//   prop_trace circuit --name balu --out F.hgr        # bundled circuit
//   prop_trace host                                   # build fingerprint
//   prop_trace flat2way   --hgr F --runs R --threads T --seed S
//                         --part-out P --trace-out J
//   prop_trace multilevel --hgr F --seed S --part-out P --trace-out J
//   prop_trace kway       --hgr F --k K --runs R --threads T --seed S
//                         --part-out P --trace-out J
//   prop_trace ingest     --hgr-list L --trace-out J
//
// The traced modes perform what prop_cli does for the same flags, but as a
// chain of calls into each layer's public functions, with a span around
// every call (span.h).  They write the partition in prop_cli's --out format
// so the caller can compare the two byte for byte, and a JSON document with
// the spans, per-run records and per-level rows.  `multilevel` also runs
// multilevel_partition() untraced and reports whether the replay matched it
// (levels, coarsest node count and every side), since a replay that drifts
// from the real V-cycle would report the layers of a different program.
#include <atomic>
#include <cstdio>
#include <exception>
#include <functional>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "hypergraph/contraction.h"
#include "hypergraph/generator.h"
#include "hypergraph/hgr_io.h"
#include "hypergraph/mcnc_suite.h"
#include "kway/kway_partitioner.h"
#include "kway/kway_state.h"
#include "multilevel/multilevel_driver.h"
#include "partition/initial.h"
#include "partition/partition.h"
#include "partition/runner.h"
#include "service/algo_factory.h"
#include "service/server.h"
#include "span.h"
#include "util/cli.h"
#include "util/rng.h"
#include "util/timer.h"

namespace {

using perfbench::Tracer;
using Scope = perfbench::Tracer::Scope;

struct Document {
  std::string mode;
  double total_s = 0.0;
  double reference_s = 0.0;  ///< untraced reference call (multilevel only)
  bool fidelity_ok = true;
  std::string fidelity_detail;
  std::ostringstream result;  ///< mode-specific JSON members
  std::vector<std::string> runs;
  std::vector<std::string> levels;
  std::vector<Tracer> tracers;
};

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

bool write_document(const Document& d, const std::string& path) {
  std::ofstream f(path);
  f << "{\"mode\":\"" << d.mode << "\",\"total_s\":" << num(d.total_s)
    << ",\"reference_s\":" << num(d.reference_s) << ",\"fidelity\":{\"ok\":"
    << (d.fidelity_ok ? "true" : "false") << ",\"detail\":\""
    << d.fidelity_detail << "\"},\"result\":{" << d.result.str()
    << "},\"runs\":[";
  for (std::size_t i = 0; i < d.runs.size(); ++i) {
    f << (i ? "," : "") << d.runs[i];
  }
  f << "],\"levels\":[";
  for (std::size_t i = 0; i < d.levels.size(); ++i) {
    f << (i ? "," : "") << d.levels[i];
  }
  f << "],\"spans\":";
  perfbench::write_spans_json(f, d.tracers);
  f << "}\n";
  return static_cast<bool>(f);
}

template <typename Part>
bool write_partition(const Part& side, const std::string& path) {
  std::ofstream f(path);
  for (const auto p : side) f << static_cast<int>(p) << '\n';
  return static_cast<bool>(f);
}

prop::Hypergraph traced_read(Tracer& t, const std::string& path) {
  Scope s(t, "hypergraph.read_hgr");
  prop::Hypergraph g = prop::read_hgr_file(path);
  std::ifstream f(path, std::ios::binary | std::ios::ate);
  s.count("bytes", static_cast<double>(f.tellg()));
  s.count("pins", static_cast<double>(g.num_pins()));
  return g;
}

void count_refine(Scope& s, const prop::RefineTelemetry& tel) {
  s.count("passes", static_cast<double>(tel.passes.size()));
  s.count("moves_attempted", static_cast<double>(tel.total_moves_attempted()));
  s.count("moves_accepted", static_cast<double>(tel.total_moves_accepted()));
  s.count("ops", static_cast<double>(tel.total_ops().total()));
  std::uint64_t skips = 0;
  for (const prop::PassStats& p : tel.passes) skips += p.refresh_skips;
  s.count("refresh_skips", static_cast<double>(skips));
}

// --- flat 2-way: read, run_many, write --------------------------------------

int trace_flat2way(const prop::CliArgs& args, Document& d) {
  Tracer& t = d.tracers.emplace_back(Tracer::Clock::now(), 0);
  const int runs = static_cast<int>(args.get_int_or("runs", 8));
  const int threads = static_cast<int>(args.get_int_or("threads", 2));
  const auto seed = static_cast<std::uint64_t>(args.get_int_or("seed", 1));
  prop::WallTimer total;
  prop::MultiRunResult r;
  {
    Scope root(t, "bench.total");
    const prop::Hypergraph g = traced_read(t, args.get_or("hgr", ""));
    const auto balance = prop::BalanceConstraint::forty_five(g);
    const auto algo = prop::service::make_algo("prop");
    prop::RunnerOptions options;
    options.collect_telemetry = true;
    options.threads = threads;
    {
      // The pass counters of every run (RefineTelemetry) are attributed to
      // this call, the innermost boundary the benchmark can see.
      Scope s(t, "partition.run_many");
      r = prop::run_many(*algo, g, balance, runs, seed, options);
      s.count("runs", r.runs_attempted());
      s.count("runs_failed", r.runs_failed());
      s.count("threads", threads);
      for (const prop::RunTelemetry& run : r.telemetry) {
        count_refine(s, run.refine);
        for (const prop::PassStats& p : run.refine.passes) {
          s.count("refine_s", p.wall_seconds);
        }
      }
    }
    if (!write_partition(r.best.side, args.get_or("part-out", ""))) return 1;
  }
  d.total_s = total.seconds();
  for (const prop::RunRecord& rec : r.records) {
    d.runs.push_back("{\"ok\":" +
                     std::string(rec.produced_result() ? "true" : "false") +
                     ",\"cost\":" + num(rec.cut) +
                     ",\"wall_s\":" + num(rec.wall_seconds) +
                     ",\"cpu_s\":" + num(rec.cpu_seconds) + "}");
  }
  d.result << "\"best_cost\":" << num(r.best_cut())
           << ",\"threads\":" << threads;
  return 0;
}

// --- multilevel: the V-cycle as its chain of public calls ----------------------

/// Same mapping as the V-cycle's level balance: the caller's (r1, r2)
/// fractions re-derived on the coarse graph.
prop::BalanceConstraint level_balance(const prop::Hypergraph& coarse,
                                      const prop::BalanceConstraint& flat) {
  const double total =
      static_cast<double>(std::max<std::int64_t>(flat.total(), 1));
  return prop::BalanceConstraint::fraction(
      coarse, std::max(0.01, static_cast<double>(flat.lo()) / total),
      std::min(0.99, static_cast<double>(flat.hi()) / total));
}

int trace_multilevel(const prop::CliArgs& args, Document& d) {
  Tracer& t = d.tracers.emplace_back(Tracer::Clock::now(), 0);
  // prop_cli runs one multi-start run, whose seed run_many derives.
  const std::uint64_t seed =
      prop::mix_seed(static_cast<std::uint64_t>(args.get_int_or("seed", 1)),
                     std::uint64_t{0});
  const prop::MultilevelConfig config;
  prop::WallTimer total;
  prop::Hypergraph g;
  std::vector<std::uint8_t> sides;
  struct Level {
    prop::Hypergraph graph;
    std::vector<prop::NodeId> fine_to_coarse;
  };
  std::vector<Level> levels;
  std::vector<std::ostringstream> rows;
  double cut = 0.0;
  {
    Scope root(t, "bench.total");
    g = traced_read(t, args.get_or("hgr", ""));
    const auto balance = prop::BalanceConstraint::forty_five(g);
    prop::WallTimer run_timer;
    prop::ThreadCpuTimer cpu;
    Scope run(t, "partition.run");

    {
      Scope phase(t, "multilevel.coarsen");
      levels.reserve(static_cast<std::size_t>(config.max_levels));
      const prop::Hypergraph* current = &g;
      for (int level = 0; level < config.max_levels &&
                          current->num_nodes() > config.coarsest_max_nodes;
           ++level) {
        prop::WallTimer level_timer;
        prop::Rng rng(prop::mix_seed(seed, 0xC0A45EULL,
                                     static_cast<std::uint64_t>(level)));
        const std::int64_t max_weight = std::max<std::int64_t>(
            1, static_cast<std::int64_t>(
                   static_cast<double>(current->total_node_size()) *
                   config.max_cluster_fraction));
        prop::NodeId clusters = 0;
        std::vector<prop::NodeId> cluster_of;
        {
          Scope s(t, "multilevel.attraction_clusters");
          cluster_of = prop::attraction_clusters(
              *current, rng, max_weight, config.rating_max_net_size, clusters);
          s.count("nodes", current->num_nodes());
          s.count("clusters", clusters);
        }
        if (static_cast<double>(clusters) >
            config.min_reduction * static_cast<double>(current->num_nodes())) {
          break;
        }
        prop::ContractionResult c;
        double contract_s = 0.0;
        {
          prop::WallTimer contract_timer;
          Scope s(t, "hypergraph.contract");
          c = prop::contract(*current, cluster_of, clusters);
          s.count("pins", static_cast<double>(current->num_pins()));
          contract_s = contract_timer.seconds();
        }
        std::ostringstream row;
        row << "\"level\":" << level + 1
            << ",\"fine_nodes\":" << current->num_nodes()
            << ",\"coarse_nodes\":" << c.coarse.num_nodes()
            << ",\"coarse_pins\":" << c.coarse.num_pins()
            << ",\"coarsen_s\":" << num(level_timer.seconds())
            << ",\"contract_s\":" << num(contract_s);
        rows.push_back(std::move(row));
        levels.push_back(
            Level{std::move(c.coarse), std::move(c.fine_to_coarse)});
        current = &levels.back().graph;
      }
    }

    const prop::Hypergraph& coarsest = levels.empty() ? g : levels.back().graph;
    const prop::BalanceConstraint coarsest_balance =
        levels.empty() ? balance : level_balance(coarsest, balance);
    {
      Scope phase(t, "multilevel.initial");
      double best_cut = 0.0;
      for (int r = 0; r < std::max(1, config.initial_runs); ++r) {
        prop::Rng rng(
            prop::mix_seed(seed, 0x141714ULL, static_cast<std::uint64_t>(r)));
        std::vector<std::uint8_t> start;
        {
          Scope s(t, "partition.random_balanced_sides");
          start = prop::random_balanced_sides(coarsest, coarsest_balance, rng);
        }
        prop::Partition part(coarsest, start);
        prop::RefineTelemetry tel;
        prop::FmConfig fm = config.fm;
        fm.telemetry = &tel;
        Scope s(t, "fm.fm_refine");
        const prop::RefineOutcome outcome =
            prop::fm_refine(part, coarsest_balance, fm);
        count_refine(s, tel);
        if (sides.empty() || outcome.cut_cost < best_cut) {
          sides = part.sides();
          best_cut = outcome.cut_cost;
        }
      }
    }

    Scope phase(t, "multilevel.uncoarsen");
    const auto refine_level = [&](const prop::Hypergraph& lg,
                                  const prop::BalanceConstraint& lb) {
      prop::Partition part(lg, sides);
      {
        Scope s(t, "partition.repair_balance");
        prop::repair_balance(part, lb);
      }
      prop::RefineTelemetry tel;
      prop::PropConfig prop_config = config.prop;
      prop_config.telemetry = &tel;
      {
        Scope s(t, "core.prop_refine");
        prop::prop_refine(part, lb, prop_config);
        count_refine(s, tel);
      }
      sides = part.sides();
      return part.cut_cost();
    };
    for (std::size_t i = levels.size(); i-- > 0;) {
      prop::WallTimer level_timer;
      const prop::Hypergraph& lg = levels[i].graph;
      const double level_cut = refine_level(lg, level_balance(lg, balance));
      double project_s = 0.0;
      {
        prop::WallTimer project_timer;
        Scope s(t, "multilevel.project_partition");
        sides = prop::project_partition(levels[i].fine_to_coarse, sides);
        project_s = project_timer.seconds();
      }
      rows[i] << ",\"refine_s\":" << num(level_timer.seconds())
              << ",\"project_s\":" << num(project_s)
              << ",\"cut\":" << num(level_cut);
    }
    prop::WallTimer flat_timer;
    cut = refine_level(g, balance);
    std::ostringstream flat;
    flat << "\"level\":0,\"coarse_nodes\":" << g.num_nodes()
         << ",\"coarse_pins\":" << g.num_pins()
         << ",\"refine_s\":" << num(flat_timer.seconds())
         << ",\"cut\":" << num(cut);
    rows.push_back(std::move(flat));
    d.runs.push_back("{\"ok\":true,\"cost\":" + num(cut) +
                     ",\"wall_s\":" + num(run_timer.seconds()) +
                     ",\"cpu_s\":" + num(cpu.seconds()) + "}");
    if (!write_partition(sides, args.get_or("part-out", ""))) return 1;
  }
  d.total_s = total.seconds();
  for (auto& row : rows) d.levels.push_back("{" + row.str() + "}");
  const prop::NodeId coarsest_nodes =
      (levels.empty() ? g : levels.back().graph).num_nodes();
  d.result << "\"best_cost\":" << num(cut) << ",\"levels\":" << levels.size()
           << ",\"coarsest_nodes\":" << coarsest_nodes << ",\"threads\":1";

  // Fidelity: the untraced V-cycle on the same input and seed.
  prop::WallTimer reference;
  const prop::MultilevelResult ref = prop::multilevel_partition(
      g, prop::BalanceConstraint::forty_five(g), seed, config);
  d.reference_s = reference.seconds();
  if (ref.levels != static_cast<int>(levels.size())) {
    d.fidelity_ok = false;
    d.fidelity_detail = "levels " + std::to_string(levels.size()) +
                        " != MultilevelResult " + std::to_string(ref.levels);
  } else if (ref.coarsest_nodes != coarsest_nodes) {
    d.fidelity_ok = false;
    d.fidelity_detail = "coarsest_nodes differ from MultilevelResult";
  } else if (ref.part.side != sides) {
    d.fidelity_ok = false;
    d.fidelity_detail = "replayed sides differ from MultilevelResult";
  }
  return 0;
}

// --- k-way: recursive_bisection, kway_refine, kway_prop_refine per run ------

struct KWayRun {
  std::vector<prop::NodeId> part;
  double rb_cost = 0.0;
  double greedy_cost = 0.0;
  double cost = 0.0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

KWayRun kway_run(Tracer& t, const prop::Hypergraph& g, prop::NodeId k,
                 std::uint64_t seed) {
  KWayRun out;
  prop::WallTimer wall;
  prop::ThreadCpuTimer cpu;
  Scope run(t, "partition.run");
  const prop::KWayPipelineConfig config;  // what make_kway_algo builds
  const auto bisector = prop::service::make_algo("prop");
  {
    Scope s(t, "kway.recursive_bisection");
    prop::KWayOptions rb;
    rb.tolerance = config.tolerance;
    out.part = prop::recursive_bisection(*bisector, g, k, seed, rb).part;
  }
  out.rb_cost = prop::KWayState(g, out.part, k).connectivity_cost();
  {
    Scope s(t, "kway.kway_refine");
    prop::KWayRefineConfig greedy;
    greedy.objective = config.objective;
    greedy.tolerance = config.tolerance;
    greedy.max_passes = config.greedy_max_passes;
    const prop::KWayRefineOutcome gr =
        prop::kway_refine(g, out.part, k, seed, greedy);
    s.count("passes", gr.passes);
    s.count("moves", gr.moves);
    out.greedy_cost = gr.connectivity_cost;
  }
  {
    Scope s(t, "kway.kway_prop_refine");
    prop::RefineTelemetry tel;
    prop::KWayPropConfig prop_config = config.prop;
    prop_config.objective = config.objective;
    prop_config.telemetry = &tel;
    const prop::KWayBalanceWindow window =
        prop::kway_part_window(g.total_node_size(), k, config.tolerance,
                               prop::kway_max_node_size(g));
    const prop::KWayPropOutcome pr =
        prop::kway_prop_refine(g, out.part, k, window, prop_config);
    count_refine(s, tel);
    out.cost = pr.connectivity_cost;
  }
  out.wall_s = wall.seconds();
  out.cpu_s = cpu.seconds();
  return out;
}

int trace_kway(const prop::CliArgs& args, Document& d) {
  const int runs = std::max(1, static_cast<int>(args.get_int_or("runs", 4)));
  const int threads =
      std::max(1, static_cast<int>(args.get_int_or("threads", 2)));
  const auto k = static_cast<prop::NodeId>(args.get_int_or("k", 4));
  const auto base_seed = static_cast<std::uint64_t>(args.get_int_or("seed", 1));
  const auto epoch = Tracer::Clock::now();
  // Request 0 is the calling thread; request r + 1 is run r.  Sized up
  // front: each worker holds a reference into the vector while it runs.
  d.tracers.reserve(static_cast<std::size_t>(runs) + 1);
  for (int r = 0; r <= runs; ++r) {
    d.tracers.emplace_back(epoch, static_cast<std::uint64_t>(r));
  }
  Tracer& t = d.tracers[0];
  std::vector<KWayRun> results(static_cast<std::size_t>(runs));
  prop::WallTimer total;
  std::size_t best = 0;
  {
    Scope root(t, "bench.total");
    const prop::Hypergraph g = traced_read(t, args.get_or("hgr", ""));
    {
      Scope s(t, "partition.run_many");
      s.count("runs", runs);
      s.count("threads", threads);
      for (int r = 1; r <= runs; ++r) {
        d.tracers[static_cast<std::size_t>(r)].set_root_parent(
            static_cast<int>(t.spans().size()) - 1);
      }
      std::atomic<int> next{0};
      std::vector<std::exception_ptr> failed(static_cast<std::size_t>(threads));
      const auto worker = [&](std::exception_ptr& error) {
        try {
          for (int r = next++; r < runs; r = next++) {
            results[static_cast<std::size_t>(r)] = kway_run(
                d.tracers[static_cast<std::size_t>(r) + 1], g, k,
                prop::mix_seed(base_seed, static_cast<std::uint64_t>(r)));
          }
        } catch (...) {
          error = std::current_exception();
        }
      };
      std::vector<std::thread> pool;
      for (auto& error : failed) pool.emplace_back(worker, std::ref(error));
      for (std::thread& th : pool) th.join();
      for (const auto& error : failed) {
        if (error) std::rethrow_exception(error);
      }
    }
    // run_many's reduction: strictly lower cost wins, ties keep the
    // earliest run.
    for (std::size_t r = 1; r < results.size(); ++r) {
      if (results[r].cost < results[best].cost) best = r;
    }
    if (!write_partition(results[best].part, args.get_or("part-out", ""))) {
      return 1;
    }
  }
  d.total_s = total.seconds();
  for (const KWayRun& r : results) {
    d.runs.push_back("{\"ok\":true,\"cost\":" + num(r.cost) +
                     ",\"rb_cost\":" + num(r.rb_cost) +
                     ",\"greedy_cost\":" + num(r.greedy_cost) +
                     ",\"wall_s\":" + num(r.wall_s) +
                     ",\"cpu_s\":" + num(r.cpu_s) + "}");
  }
  d.result << "\"best_cost\":" << num(results[best].cost)
           << ",\"best_run\":" << best << ",\"k\":" << k
           << ",\"threads\":" << threads;
  return 0;
}

// --- ingest: the server's inline-payload parse ---------------------------------

int trace_ingest(const prop::CliArgs& args, Document& d) {
  Tracer& t = d.tracers.emplace_back(Tracer::Clock::now(), 0);
  std::ifstream list(args.get_or("hgr-list", ""));
  std::vector<std::string> payloads;
  for (std::string path; std::getline(list, path);) {
    std::ifstream f(path, std::ios::binary);
    payloads.emplace_back(std::istreambuf_iterator<char>(f),
                          std::istreambuf_iterator<char>());
  }
  if (payloads.empty()) return 1;
  const prop::HgrLimits limits = prop::service::ServerConfig{}.hgr_limits;
  prop::WallTimer total;
  {
    Scope root(t, "bench.total");
    std::uint64_t request = 0;
    for (const std::string& payload : payloads) {
      std::istringstream in(payload);
      Scope s(t, "hypergraph.read_hgr");
      const prop::Hypergraph g =
          prop::read_hgr(in, "inline" + std::to_string(request++),
                         limits);
      s.count("bytes", static_cast<double>(payload.size()));
      s.count("pins", static_cast<double>(g.num_pins()));
    }
  }
  d.total_s = total.seconds();
  d.result << "\"payloads\":" << payloads.size();
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: prop_trace gen|circuit|host|flat2way|multilevel|kway|"
               "ingest [flags]  (see the header of prop_trace.cpp)\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const prop::CliArgs args(argc, argv);
  if (args.positional().size() != 1) return usage();
  const std::string& mode = args.positional()[0];
  try {
    if (mode == "host") {
      std::printf(
          "{\"compiler\":\"%s\",\"cxx_flags\":\"%s\",\"build_type\":\"%s\"}\n",
          PERFBENCH_COMPILER, PERFBENCH_CXX_FLAGS, PERFBENCH_BUILD_TYPE);
      return 0;
    }
    if (mode == "gen") {
      const auto n = static_cast<prop::NodeId>(args.get_int_or("nodes", 0));
      const auto seed = static_cast<std::uint64_t>(args.get_int_or("seed", 1));
      prop::write_hgr_file(
          prop::generate_circuit(
              prop::scaled_spec("synth" + std::to_string(n), n), seed),
          args.get_or("out", ""));
      return 0;
    }
    if (mode == "circuit") {
      prop::write_hgr_file(prop::make_mcnc_circuit(args.get_or("name", "")),
                           args.get_or("out", ""));
      return 0;
    }
    Document d;
    d.mode = mode;
    int rc = 0;
    if (mode == "flat2way") {
      rc = trace_flat2way(args, d);
    } else if (mode == "multilevel") {
      rc = trace_multilevel(args, d);
    } else if (mode == "kway") {
      rc = trace_kway(args, d);
    } else if (mode == "ingest") {
      rc = trace_ingest(args, d);
    } else {
      return usage();
    }
    if (rc != 0) return rc;
    if (!write_document(d, args.get_or("trace-out", ""))) return 1;
    if (!d.fidelity_ok) {
      std::fprintf(stderr, "replay fidelity: %s\n", d.fidelity_detail.c_str());
      return 4;
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
