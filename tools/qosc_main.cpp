// qosc — command line front-end to the prototype tool (paper Figure 4).
//
// Usage:
//   qosc check <spec>                 validate a system specification
//   qosc report <spec>                schedule, slacks, feasibility report
//   qosc emit-c <spec> <out.c> [sym]  generate the embedded C controller
//
// The spec format is documented in src/toolgen/spec_parser.h; a worked
// example lives in examples/specs/pipeline.qos.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>

#include "cli_util.h"
#include "qos/slack_tables.h"
#include "sched/edf.h"
#include "toolgen/codegen.h"
#include "toolgen/spec_parser.h"

namespace {

using namespace qosctrl;

const char kUsage[] =
    "usage: qosc check <spec>\n"
    "       qosc report <spec>\n"
    "       qosc emit-c <spec> <out.c> [symbol-prefix]\n"
    "       qosc --help | --version\n";

int usage() {
  std::fputs(kUsage, stderr);
  return 2;
}

toolgen::ParsedSpec load(const char* path) {
  std::ifstream f(path);
  if (!f) {
    toolgen::ParsedSpec bad;
    bad.error = std::string("cannot open ") + path;
    return bad;
  }
  return toolgen::parse_spec(f);
}

void print_report(const toolgen::ParsedSpec& spec,
                  const toolgen::ToolOutput& out) {
  const auto& sys = *out.system;
  const auto& tables = *out.tables;
  std::printf("system      : %zu body actions x %d iterations = %zu steps\n",
              spec.input.body.num_actions(), spec.input.iterations,
              tables.num_positions());
  std::printf("levels      : %zu (", sys.quality_levels().size());
  for (std::size_t i = 0; i < sys.quality_levels().size(); ++i) {
    std::printf("%s%d", i ? " " : "", sys.quality_levels()[i]);
  }
  std::printf(")\n");
  std::printf("budget      : %lld cycles, evenly paced over iterations\n",
              static_cast<long long>(spec.budget));
  std::printf("table bytes : %zu\n", tables.table_bytes());

  // Static load summary per level (averages / worst cases vs budget),
  // plus exact schedulability verdicts: a level is "safe constant" when
  // even its worst case fits every deadline (Lawler-EDF check), and
  // "fits on avg" when its averages do — the range the controller can
  // exploit lies between the two.
  std::printf("\n%-8s %16s %16s %12s %12s %12s\n", "level", "avg-cycles",
              "wc-cycles", "avg/budget", "fits-on-avg", "safe-const");
  for (rt::QualityLevel q : sys.quality_levels()) {
    rt::Cycles av = 0, wc = 0;
    for (std::size_t a = 0; a < sys.num_actions(); ++a) {
      av += sys.cav(q, static_cast<rt::ActionId>(a));
      wc += sys.cwc(q, static_cast<rt::ActionId>(a));
    }
    const bool fits_avg = sched::schedulable(sys.graph(), sys.cav_of(q),
                                             sys.deadline_of(q));
    const bool safe_wc = sched::schedulable(sys.graph(), sys.cwc_of(q),
                                            sys.deadline_of(q));
    std::printf("%-8d %16lld %16lld %11.1f%% %12s %12s\n", q,
                static_cast<long long>(av), static_cast<long long>(wc),
                100.0 * static_cast<double>(av) /
                    static_cast<double>(spec.budget),
                fits_avg ? "yes" : "no", safe_wc ? "yes" : "no");
  }

  std::printf("\nschedule (body order of first iteration):\n");
  const std::size_t m = spec.input.body.num_actions();
  for (std::size_t i = 0; i < m; ++i) {
    const rt::ActionId a = tables.schedule()[i];
    std::printf("  %2zu. %s  (deadline %lld)\n", i,
                sys.graph().name(a).c_str(),
                static_cast<long long>(sys.deadline(sys.qmin(), a)));
  }
}

}  // namespace

int main(int argc, char** argv) {
  // Validate the command shape before touching the spec: an unknown
  // subcommand or a missing spec argument prints usage and exits
  // nonzero instead of half-working.
  if (argc < 2) return usage();
  if (const int status = cli::answer_help_or_version(
          "qosc", argv[1], [] { std::fputs(kUsage, stdout); });
      status >= 0) {
    return status;
  }
  const char* command = argv[1];
  const bool known = std::strcmp(command, "check") == 0 ||
                     std::strcmp(command, "report") == 0 ||
                     std::strcmp(command, "emit-c") == 0;
  if (!known) {
    std::fprintf(stderr, "qosc: unknown command '%s'\n", command);
    return usage();
  }
  if (argc < 3) {
    std::fprintf(stderr, "qosc: %s requires a spec file\n", command);
    return usage();
  }
  const toolgen::ParsedSpec spec = load(argv[2]);
  if (!spec.ok) {
    std::fprintf(stderr, "qosc: %s\n", spec.error.c_str());
    return 1;
  }

  if (std::strcmp(command, "check") == 0) {
    // run_tool aborts on semantic problems (unschedulable at qmin);
    // reaching the print means the spec compiled.
    const toolgen::ToolOutput out = toolgen::run_tool(spec.input);
    std::printf("ok: %zu steps, %zu levels, schedulable at qmin/WCET\n",
                out.tables->num_positions(),
                out.tables->quality_levels().size());
    return 0;
  }
  if (std::strcmp(command, "report") == 0) {
    const toolgen::ToolOutput out = toolgen::run_tool(spec.input);
    print_report(spec, out);
    return 0;
  }
  if (std::strcmp(command, "emit-c") == 0) {
    if (argc < 4) return usage();
    const toolgen::ToolOutput out = toolgen::run_tool(spec.input);
    toolgen::CodegenOptions opts;
    if (argc > 4) opts.symbol_prefix = argv[4];
    const std::string code = toolgen::generate_c_controller(
        *out.tables, spec.input.body, opts);
    std::ofstream f(argv[3]);
    if (!f) {
      std::fprintf(stderr, "qosc: cannot write %s\n", argv[3]);
      return 1;
    }
    f << code;
    std::printf("wrote %s (%zu bytes)\n", argv[3], code.size());
    return 0;
  }
  return usage();
}
