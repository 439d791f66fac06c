// Worker (and stand-alone supervisor) for the proc-mode tests: builds the
// tiny grid named by --grid through parse_cli_or_exit + run_grid, exactly
// as a bench program does (a flag it does not know exits 2). Run by the
// proc executor with --worker-job N appended, run_grid computes that one
// cell and exits. Without it, the program runs the whole sweep (honouring
// --proc-workers and --cache) and exits 0.
//
//   grid_worker --grid NAME [--fail-split] [shared exp::parse_cli flags]
//
// --fail-split makes the grid's split cells throw, a transient failure that
// a rerun without the flag no longer hits.
#include <cstdio>
#include <exception>

#include "exp/experiment.hpp"
#include "helpers/tiny_grids.hpp"

int main(int argc, char** argv) {
  using namespace stob;
  try {
    const exp::Cli cli = exp::parse_cli_or_exit("grid_worker", argc, argv,
                                                {{"--grid", true}, {"--fail-split", false}});
    exp::tiny::TinyGrid t = exp::tiny::make_grid(cli.get("--grid"), cli.has("--fail-split"));
    t.opts.proc = exp::proc_options_from_cli(cli);
    const exp::CacheSession cache = exp::CacheSession::from_cli(cli);
    t.opts.cache = cache.cache();
    exp::run_grid(t.grid, t.opts);
    cache.finish("grid_worker");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "grid_worker: %s\n", e.what());
    return 1;
  }
  return 0;
}
