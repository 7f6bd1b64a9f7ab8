// om_lint — validates OpenMetrics expositions written by the telemetry
// exporter (obs/export.h).
//
//   om_lint <file.om> [<file.om> ...]
//
// Each file is parsed and structurally checked: `# EOF` terminator,
// metric-name charset, no duplicate TYPE declarations, suffix/type
// agreement (counter samples end in _total, histogram samples in
// _bucket/_sum/_count), numeric values, and nondecreasing timestamps
// per series. Exit 0 iff every file passes — CI runs this over the
// bench-smoke artifacts so a malformed exposition fails the build
// instead of silently corrupting downstream tooling.

#include <cstdio>
#include <string>

#include "obs/export.h"

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: om_lint <file.om> [<file.om> ...]\n");
    return 1;
  }
  int status = 0;
  for (int i = 1; i < argc; ++i) {
    const auto read = mgjoin::obs::ReadTextFile(argv[i]);
    if (!read.ok()) {
      std::fprintf(stderr, "om_lint: %s\n", read.status().ToString().c_str());
      status = 1;
      continue;
    }
    const std::string& text = read.value();
    const mgjoin::Status st = mgjoin::obs::LintOpenMetrics(text);
    if (!st.ok()) {
      std::fprintf(stderr, "om_lint: %s: %s\n", argv[i],
                   st.ToString().c_str());
      status = 1;
      continue;
    }
    auto families = mgjoin::obs::ParseOpenMetrics(text);
    std::size_t samples = 0;
    for (const auto& fam : families.value()) samples += fam.samples.size();
    std::printf("om_lint: %s OK (%zu families, %zu samples)\n", argv[i],
                families.value().size(), samples);
  }
  return status;
}
