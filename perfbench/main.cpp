//===- main.cpp - Command line of the repo benchmark ----------------------===//
//
// Part of the CPAM reproduction of PaC-trees (PLDI 2022).
//
//===----------------------------------------------------------------------===//
//
// cpambench --workload lookup_scan|update_churn|serve_mixed --seed N
//           --seconds S [--trace] [--smoke] [--out DIR]
//
// Runs one workload and prints one JSON object as its last line: the
// correctness verdict, operation counts, the end-to-end metrics, the same
// figures under their per-workload names, and (with --trace) the
// per-layer values measured here plus the trace segments and metrics
// export that extract.py turns into the rest. run.py is the front end.
//
//===----------------------------------------------------------------------===//

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "perfbench/common.h"

namespace {

std::string quoted(const std::string &S) {
  std::string Out = "\"";
  for (char Ch : S) {
    if (Ch == '"' || Ch == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(Ch) < 0x20)
      Ch = ' ';
    Out += Ch;
  }
  return Out + "\"";
}

std::string number(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

int usage() {
  std::fprintf(stderr,
               "usage: cpambench --workload lookup_scan|update_churn|"
               "serve_mixed --seed N --seconds S [--trace] [--smoke] "
               "[--out DIR]\n");
  return 2;
}

} // namespace

int main(int argc, char **argv) {
  perfbench::config C;
  std::string Workload;
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    bool HasValue = I + 1 < argc;
    if (A == "--workload" && HasValue)
      Workload = argv[++I];
    else if (A == "--seed" && HasValue)
      C.Seed = std::strtoull(argv[++I], nullptr, 10);
    else if (A == "--seconds" && HasValue)
      C.Seconds = std::strtod(argv[++I], nullptr);
    else if (A == "--out" && HasValue)
      C.OutDir = argv[++I];
    else if (A == "--trace")
      C.Trace = true;
    else if (A == "--smoke")
      C.Smoke = true;
    else
      return usage();
  }
  if (!(C.Seconds > 0))
    return usage();

  perfbench::result R;
  if (Workload == "lookup_scan")
    R = perfbench::run_lookup_scan(C);
  else if (Workload == "update_churn")
    R = perfbench::run_update_churn(C);
  else if (Workload == "serve_mixed")
    R = perfbench::run_serve_mixed(C);
  else
    return usage();
  double PeakMb = R.PeakRssMb > 0 ? R.PeakRssMb : perfbench::peak_rss_mb();
  R.e2e("peak_rss_mb", PeakMb);
  R.named("peak_rss_mb", PeakMb, "MB");
  double Ok = R.Attempted
                  ? 1.0 - static_cast<double>(R.Failed) / R.Attempted
                  : 0.0;
  R.e2e("ok_frac", Ok);
  R.named("failed_frac", 1.0 - Ok, "frac");

  std::string Out = "{\"workload\": " + quoted(Workload) +
                    ", \"correct\": " + (R.Correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(R.Attempted) +
                    ", \"failed\": " + std::to_string(R.Failed) +
                    ", \"error\": " + quoted(R.Error);
  auto Object = [&](const char *Key, const auto &Pairs) {
    Out += std::string(", \"") + Key + "\": {";
    bool First = true;
    for (const auto &[Name, V] : Pairs) {
      Out += (First ? "" : ", ") + quoted(Name) + ": " + number(V);
      First = false;
    }
    Out += "}";
  };
  Object("e2e", R.E2E);
  Object("layer", R.Layer);
  Out += ", \"named\": [";
  for (size_t I = 0; I < R.Named.size(); ++I)
    Out += (I ? ", [" : "[") + quoted(R.Named[I].Name) + ", " +
           number(R.Named[I].Value) + ", " + quoted(R.Named[I].Unit) + "]";
  Out += "], \"trace_files\": [";
  for (size_t I = 0; I < R.TraceFiles.size(); ++I)
    Out += (I ? ", " : "") + quoted(R.TraceFiles[I]);
  Out += "], \"export\": " + quoted(R.ExportPath) +
         ", \"workers\": " + std::to_string(cpam::par::num_workers()) + "}";
  std::printf("%s\n", Out.c_str());
  return 0;
}
