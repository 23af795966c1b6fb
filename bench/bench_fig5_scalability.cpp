// Reproduces Figure 5 (ExptA-1): scalability study on window size and
// perturbation range — normalized routed wirelength and runtime vs window
// size, one DistOpt pair per configuration, aes/ClosedM1.
//
// Expected shape (paper): RWL decreases as the window grows; runtime blows
// up super-linearly (e.g. ~5x at bw=40 vs 20). The chosen operating point
// is the smallest-runtime config within 1% of the best RWL: (20, 4, 1).
#include "bench_util.h"

#include "core/dist_opt.h"
#include "route/router.h"
#include "util/logging.h"

using namespace vm1;
using namespace vm1::benchutil;

int main() {
  print_run_header("bench_fig5_scalability");
  double scale = env_scale(0.25);
  std::printf("Figure 5 reproduction (aes, ClosedM1, scale=%.2f)\n", scale);

  FlowOptions base = paper_flow("aes", CellArch::kClosedM1, 1200, scale);
  double place_s = 0;
  Design d0 = prepare_design(base, &place_s);
  std::vector<Placement> snap = d0.placements();

  // Baseline routed wirelength before any optimization.
  RouteMetrics init = Router(d0, base.router).route();
  std::printf("initial RWL = %ld\n\n", init.rwl_dbu);

  Table t({"bw", "bh", "lx", "ly", "RWL", "RWL/init", "#dM1", "runtime_s"});

  JsonWriter jw("BENCH_fig5.json");
  jw.begin_object();
  write_run_metadata(jw);
  jw.field("bench", "fig5_scalability");
  jw.field("design", base.design_name);
  jw.field("scale", scale);
  jw.field("initial_rwl_dbu", init.rwl_dbu);
  jw.begin_array("rows");

  ThreadPool pool(env_threads());
  for (int bw : {5, 10, 20, 40, 80}) {
    for (int lx : {2, 4}) {
      for (int ly : {0, 1}) {
        // Fresh copy of the initial placement for every configuration.
        Design d = design_from_snapshot(base, snap);

        ParamSet u{bw, 0, lx, ly};
        Timer timer;
        // One DistOpt pair (move pass + flip pass), as in ExptA-1.
        DistOptOptions move;
        move.bw = u.bw;
        move.bh = u.rows();
        move.lx = u.lx;
        move.ly = u.ly;
        move.allow_move = true;
        move.allow_flip = false;
        move.params = base.vm1.params;
        move.mip = base.vm1.mip;
        DistOptStats sm = dist_opt(d, move, &pool);
        DistOptOptions flip = move;
        flip.lx = 0;
        flip.ly = 0;
        flip.allow_move = false;
        flip.allow_flip = true;
        DistOptStats sf = dist_opt(d, flip, &pool);
        double opt_seconds = timer.seconds();

        RouteMetrics m = Router(d, base.router).route();
        t.add_row({fmt(bw, 0), fmt(u.rows(), 0), fmt(lx, 0), fmt(ly, 0),
                   fmt(m.rwl_dbu, 0),
                   fmt(static_cast<double>(m.rwl_dbu) / init.rwl_dbu, 4),
                   fmt(m.num_dm1, 0), fmt(opt_seconds, 2)});

        jw.begin_object();
        jw.field("bw", bw);
        jw.field("bh", u.rows());
        jw.field("lx", lx);
        jw.field("ly", ly);
        jw.field("rwl_dbu", m.rwl_dbu);
        jw.field("rwl_norm", static_cast<double>(m.rwl_dbu) / init.rwl_dbu);
        jw.field("num_dm1", m.num_dm1);
        jw.field("runtime_s", opt_seconds);
        jw.field("objective", sf.objective.value);
        jw.field("nodes", sm.total_nodes + sf.total_nodes);
        jw.field("lp_iterations", sm.total_lp_iters + sf.total_lp_iters);
        jw.field("dual_pivots", sm.dual_pivots + sf.dual_pivots);
        jw.field("warm_start_hits", sm.warm_solves + sf.warm_solves);
        jw.field("cold_restarts", sm.cold_restarts + sf.cold_restarts);
        jw.field("rc_fixed", sm.rc_fixed + sf.rc_fixed);
        write_window_outcomes(jw, {&sm, &sf});
        jw.end_object();
      }
    }
  }
  jw.end_array();
  write_telemetry(jw);
  jw.end_object();
  std::printf("%s", t.render().c_str());
  std::printf("\npaper reference: larger windows -> lower RWL but runtime "
              "explodes (~5x at bw=40); pick (20, 4, 1).\n");
  return 0;
}
