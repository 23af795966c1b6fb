// flow_closedm1: the paper's flow after placement, on aes / ClosedM1 at the
// EXPERIMENTS.md operating point (scale 0.25, utilization 0.75, alpha =
// 1200 nm, U = {(20,4,1)}, theta = 1%), threads backend with 4 pool
// threads and no solve cache.
//
// Set-up builds and places the run's designs and writes each as LEF + DEF.
// Each timed unit then reads one pair back, routes and times it, runs
// vm1opt, routes and times it again and writes the final DEF — the flow the
// paper evaluates, and the one where the router does most of the work.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>

#include "bench.h"
#include "core/flow.h"
#include "design/legality.h"
#include "io/def_io.h"
#include "io/def_reader.h"
#include "io/lef_reader.h"
#include "io/lef_writer.h"
#include "place/hpwl.h"

namespace vm1bench {

namespace {

using namespace vm1;

constexpr unsigned kThreads = 4;
/// Designs per run (see design_options).
constexpr int kDesigns = 3;
/// Set-up (three designs, 13-30 ms) is timed in batches of back-to-back
/// set-ups lasting at least this long, one before the rounds and one before
/// every flow unit, and the median of the batches' mean set-up time is
/// reported. On a 4-vCPU guest, single set-ups ran either fast or about
/// 1.5x slower in stretches of 0.1-0.6 s, mostly slow in the first half
/// second of the process, so one block after start-up gave medians 13-20 ms
/// from run to run; batches spread over the run sample what the units see.
constexpr double kSetupBatchSeconds = 0.3;

FlowOptions flow_options(const Args& args) {
  FlowOptions f;
  f.design_name = "aes";
  f.arch = CellArch::kClosedM1;
  f.design.scale = 0.25;
  f.design.utilization = 0.75;
  f.vm1.params.alpha = paper_alpha(1200);
  f.vm1.params.epsilon = 0;
  f.vm1.sequence = {ParamSet{20, 0, 4, 1}};
  f.vm1.theta = 0.01;
  f.vm1.max_inner_iters = 2;
  f.vm1.threads = kThreads;
  f.vm1.backend = DistBackend::kThreads;
  // Node limits bind, wall clock never: every run does the same arithmetic.
  f.vm1.mip.time_limit_sec = 3600;
  f.vm1.mip.lp_options.time_limit_sec = 0;
  if (args.max_nodes > 0) f.vm1.mip.max_nodes = args.max_nodes;
  return f;
}

/// Design k of the run. Designs 0 and 1 are fixed — the historical aes
/// netlist (DesignOptions::seed 0, as in EXPERIMENTS.md) and seed 1 — and
/// the last is drawn from the run's seed (DesignOptions::seed 1000 + seed).
/// One netlist's flow time swings by a sixth with how congested it happens
/// to be; anchoring two of three keeps a run's figures moving with the
/// program rather than with the draw.
FlowOptions design_options(const FlowOptions& f, std::uint64_t seed, int k) {
  FlowOptions g = f;
  g.design.seed = k < kDesigns - 1 ? static_cast<std::uint64_t>(k) : 1000 + seed;
  return g;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// The steps of prepare_design(), each called on its own so set-up time
/// splits by layer. Each run checks that the two give the same design.
void set_up(const FlowOptions& f, const std::string& lef_path,
            const std::string& def_path, Tracer& tracer) {
  int root = tracer.open("setup");
  std::optional<Design> d;
  {
    Scope s(tracer, "design.make", root);
    d.emplace(make_design(f.design_name, f.arch, f.design));
  }
  {
    Scope s(tracer, "place.global", root);
    global_place(*d, f.gp);
  }
  {
    Scope s(tracer, "place.legalize", root);
    legalize(*d);
  }
  {
    Scope s(tracer, "place.detailed", root);
    DetailedPlaceOptions dp = f.dp;
    dp.max_passes = std::max(dp.max_passes, 10);
    dp.min_improve = std::min(dp.min_improve, 0.0005);
    detailed_place(*d, dp);
  }
  {
    Scope s(tracer, "io.setup_write", root);
    write_lef_file(lef_path, d->tech(), d->library());
    write_def_file(def_path, *d);
  }
  tracer.close(root);
}

struct Routed {
  RouteMetrics route;
  double max_delay = 0;
};

/// The steps of measure() that the flow reports, with routing and timing
/// in spans of their own. Each run checks that the two agree.
Routed route_and_time(const Design& d, const RouterOptions& ropts,
                      double period, Tracer& tracer, int parent) {
  Routed out;
  std::vector<long> lengths(d.netlist().num_nets(), 0);
  {
    Scope s(tracer, "route", parent);
    Router router(d, ropts);
    out.route = router.route();
    for (int n = 0; n < d.netlist().num_nets(); ++n) {
      lengths[n] = router.net_length_dbu(n);
    }
  }
  Scope s(tracer, "timing", parent);
  StaOptions sta;
  sta.clock_period = period;
  sta.net_lengths = lengths;
  out.max_delay = run_sta(d, sta).max_delay;
  PowerOptions pow;
  pow.net_lengths = lengths;
  compute_power(d, pow);
  return out;
}

bool same_route(const RouteMetrics& a, const RouteMetrics& b) {
  return a.rwl_dbu == b.rwl_dbu && a.via12 == b.via12 &&
         a.num_dm1 == b.num_dm1 && a.drv == b.drv && a.unrouted == b.unrouted;
}

/// Work counts of one phase: the registry is zeroed before it and read
/// after it, so each time has its count beside it.
template <typename F>
Counts counted(F&& phase) {
  obs::reset_metrics();
  phase();
  return snapshot_counts();
}

}  // namespace

Run run_flow_closedm1(const Args& args, Tracer& tracer) {
  Run run;
  FlowOptions f = flow_options(args);
  struct Files {
    std::string lef, def, out, def_text;
  };
  std::vector<Files> files(kDesigns);
  for (int k = 0; k < kDesigns; ++k) {
    std::string stem = args.out_dir + "/aes" + std::to_string(k);
    files[k] = {stem + ".lef", stem + ".def", stem + "_final.def", ""};
  }

  // One set-up batch; returns its wall time, checks included.
  auto setup_batch = [&] {
    const double begin = now_s();
    double busy = 0;
    int count = 0;
    do {
      double t0 = now_s();
      for (int k = 0; k < kDesigns; ++k) {
        set_up(design_options(f, args.seed, k), files[k].lef, files[k].def,
               tracer);
      }
      busy += now_s() - t0;
      ++count;
      for (Files& fl : files) {
        std::string text = slurp(fl.def);
        if (!fl.def_text.empty() && text != fl.def_text) {
          run.fail("set-up is not deterministic");
        }
        fl.def_text = std::move(text);
      }
    } while (now_s() - begin < kSetupBatchSeconds);
    run.setup_s.push_back(busy / count);
    return now_s() - begin;
  };

  std::size_t setup_failures = run.failures.size();
  setup_batch();
  for (int k = 0; k < kDesigns; ++k) {
    Design ref = prepare_design(design_options(f, args.seed, k), nullptr);
    if (write_def(ref) != files[k].def_text) {
      run.fail("design " + std::to_string(k) +
               ": set-up differs from prepare_design()");
    }
  }
  run.count_op(setup_failures);

  std::vector<Counts> first_work(kDesigns);
  Counts round0;
  double io_bytes = 0, vm1opt_s = 0;
  // Design 0's first final placement, kept for the measure() check.
  std::unique_ptr<Design> kept;
  Routed kept_final;
  double kept_period = 0;
  // Whole rounds over the designs, until the run's seconds are up, so every
  // run covers each design equally. The window leaves out the set-up
  // batches between units.
  double t_begin = now_s();
  double setup_in_window = 0;
  for (int round = 0; round == 0 || now_s() - t_begin < args.seconds;
       ++round) {
    for (int k = 0; k < kDesigns; ++k) {
      const Files& fl = files[k];
      const std::uint64_t unit = static_cast<std::uint64_t>(round) * kDesigns + k;
      const std::string tag = "unit " + std::to_string(unit) + ": ";
      const std::size_t unit_failures = run.failures.size();
      setup_in_window += setup_batch();
      double t0 = now_s();
      int root = tracer.open("flow.unit", -1, unit);
      std::unique_ptr<Design> d;
      std::string lef_text, def_text;
      {
        Scope s(tracer, "io.read", root);
        lef_text = slurp(fl.lef);
        def_text = slurp(fl.def);
        LefContents lef;
        IoError err;
        if (read_lef(lef_text, &lef, &err)) {
          d = read_def_design(def_text, lef.tech, lef.lib, &err);
        }
        if (!d) {
          tracer.close(root);
          run.fail(tag + "LEF/DEF read failed: " + err.str());
          run.count_op(unit_failures);
          return run;
        }
      }
      Qor q;
      q.hpwl_before = static_cast<double>(total_hpwl(*d));
      Routed init;
      Counts route_init = counted(
          [&] { init = route_and_time(*d, f.router, 0, tracer, root); });
      VM1OptStats st;
      Counts opt = counted([&] {
        Scope s(tracer, "core.vm1opt", root);
        st = vm1opt(*d, f.vm1);
      });
      Routed fin;
      Counts route_final = counted([&] {
        fin = route_and_time(*d, f.router, init.max_delay, tracer, root);
      });
      {
        Scope s(tracer, "io.write", root);
        write_def_file(fl.out, *d);
      }
      tracer.close(root);
      run.latency_s.push_back(now_s() - t0);

      // Output checks, outside the timed unit.
      q.hpwl_after = static_cast<double>(total_hpwl(*d));
      q.align_before = st.initial.alignments;
      q.align_after = st.final.alignments;
      q.obj_before = st.initial.value;
      q.obj_after = st.final.value;
      q.dm1_before = init.route.num_dm1;
      q.dm1_after = fin.route.num_dm1;
      q.rwl_before = init.route.rwl_dbu;
      q.rwl_after = fin.route.rwl_dbu;
      q.via12_before = init.route.via12;
      q.via12_after = fin.route.via12;
      q.drv_before = init.route.drv;
      q.drv_after = fin.route.drv;
      if (!check_legality(*d).empty()) run.fail(tag + "final placement illegal");
      if (st.final.value > st.initial.value) run.fail(tag + "objective got worse");
      long buckets = st.solved + st.fallback_rounding + st.fallback_greedy +
                     st.rejected_audit + st.kept + st.faulted + st.skipped +
                     st.cached_remote;
      if (buckets != st.windows) {
        run.fail(tag + "window outcomes do not sum to the windows");
      }
      std::string final_def = slurp(fl.out);
      {
        LefContents lef;
        IoError err;
        std::unique_ptr<Design> back;
        if (read_lef(lef_text, &lef, &err)) {
          back = read_def_design(final_def, lef.tech, lef.lib, &err);
        }
        if (!back || back->placements() != d->placements()) {
          run.fail(tag + "the written DEF does not read back as the design");
        }
      }

      Counts work;
      for (const auto& [phase, c] : {std::pair{"route.init.", &route_init},
                                     std::pair{"core.", &opt},
                                     std::pair{"route.final.", &route_final}}) {
        for (const auto& [key, v] : work_counters(*c)) work[phase + key] = v;
      }
      work["qor.align_after"] = static_cast<double>(q.align_after);
      work["qor.hpwl_after"] = q.hpwl_after;
      work["qor.dm1_after"] = static_cast<double>(q.dm1_after);
      work["qor.rwl_after"] = static_cast<double>(q.rwl_after);
      work["qor.via12_after"] = static_cast<double>(q.via12_after);
      work["qor.drv_after"] = static_cast<double>(q.drv_after);
      if (round == 0) {
        // The first round fixes the run's QoR and work counts; every later
        // round must repeat them exactly.
        first_work[k] = work;
        run.qor.add(q);
        for (const auto& [key, v] : work) {
          run.work["design" + std::to_string(k) + "." + key] = v;
        }
        for (const Counts* c : {&route_init, &opt, &route_final}) {
          accumulate(round0, *c);
        }
        vm1opt_s += st.seconds;
        io_bytes += static_cast<double>(lef_text.size() + def_text.size() +
                                        final_def.size());
        if (k == 0) {
          kept = std::move(d);
          kept_final = fin;
          kept_period = init.max_delay;
        }
      } else if (work != first_work[k]) {
        run.fail(tag + "work counts or QoR differ from the first round");
      }
      run.count_op(unit_failures);
    }
  }
  run.window_s = now_s() - t_begin - setup_in_window;
  run.window_jobs = static_cast<long>(run.latency_s.size());

  // After the window: the split routing and timing must give what the
  // library's measure() gives on the same placement.
  const std::size_t measure_failures = run.failures.size();
  QoR ref = measure(*kept, f.router, f.vm1.params, kept_period);
  if (!same_route(ref.route, kept_final.route) ||
      ref.sta.max_delay != kept_final.max_delay) {
    run.fail("route and timing differ from measure()");
  }
  run.count_op(measure_failures);

  registry_layers(round0, kDesigns, run.layer);
  run.layer["io.bytes"] = io_bytes / kDesigns;
  run.layer["core.pool_util"] =
      get(round0, "dist_opt.window_solve_sec.sum") / (kThreads * vm1opt_s);
  for (const Files& fl : files) {
    for (const std::string* p : {&fl.lef, &fl.def, &fl.out}) {
      std::remove(p->c_str());
    }
  }
  return run;
}

}  // namespace vm1bench
