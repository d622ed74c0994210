// Observability artifacts for the bench binaries.
//
// Every bench binary accepts
//   --metrics-json <path>   registry snapshot + per-cell records as JSON
//   --trace-json <path>     Chrome trace-event JSON (chrome://tracing) of
//                           the mitigation phases in FlightRecorder::Phases()
//   --metrics-summary <path> flat text summary (latency percentiles + the
//                            registry snapshot)
//   --forensics-json <path>  latest crash-forensics report as JSON
//   --forensics-text <path>  the same report as a human-readable narrative
//   --timeline-json <path>   telemetry-sampler series + recovery timeline
//   --profile-json <path>    phase-profiler snapshot (schema-versioned)
//   --profile-folded <path>  folded stacks for flamegraph tooling
//   --obs-prefix <dir/stem>  derives every artifact path at once:
//                            <stem>.metrics.json, <stem>.trace.json,
//                            <stem>.summary.txt, <stem>.forensics.json,
//                            <stem>.forensics.txt, <stem>.timeline.json,
//                            <stem>.profile.json, <stem>.profile.folded
//                            (an explicit per-artifact flag still overrides)
// and writes them when the ObsArtifactWriter goes out of scope in main().
//
// The experiment harness appends one CellRecord per (fault, solution) cell
// it runs; the records end up under "cells" in the metrics artifact so a
// table row can be joined back to the raw counter deltas that produced it.

#ifndef ARTHAS_HARNESS_ARTIFACTS_H_
#define ARTHAS_HARNESS_ARTIFACTS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"

namespace arthas {

struct CellRecord {
  std::string fault;     // fault label, e.g. "f1"
  std::string solution;  // "Arthas" / "pmCRIU" / "ArCkpt"
  std::string substrate;  // consistency substrate, "arthas" / "fase"
  bool recovered = false;
  int attempts = 0;
  int64_t mitigation_time_us = 0;  // virtual time
  // Crash-forensics digest for the cell (zero / empty when the run ended
  // without a crash or the flight recorder is compiled out).
  uint64_t forensics_lost_lines = 0;
  uint64_t forensics_open_txs = 0;
  uint64_t forensics_open_sections = 0;
  std::string forensics_summary;
  // Registry counter movement attributable to this cell (after - before).
  std::map<std::string, uint64_t> counter_deltas;
};

// Process-global per-cell accumulator (appended by FaultExperiment::Run).
void RecordCell(CellRecord record);
std::vector<CellRecord> CellRecords();
void ClearCellRecords();

// The metrics artifact: {"counters", "gauges", "histograms", "cells"}.
std::string MetricsArtifactJson();

// The trace artifact: {"traceEvents", "displayTimeUnit"}, one process_name
// row, one thread_name row per thread with phases, then one "X" event per
// closed phase in completion order, its count (if any) under "args". If a
// thread's phase ring wrapped, "otherData": {"dropped_phases": n} counts
// the phases lost (absent otherwise).
std::string TraceArtifactJson();

// Parses --metrics-json/--trace-json/--metrics-summary out of argv and
// writes the artifacts at scope exit (i.e. when main() returns).
class ObsArtifactWriter {
 public:
  ObsArtifactWriter(int argc, char** argv);
  ~ObsArtifactWriter();

  ObsArtifactWriter(const ObsArtifactWriter&) = delete;
  ObsArtifactWriter& operator=(const ObsArtifactWriter&) = delete;

  // Writes whichever artifacts were requested, immediately. The destructor
  // writes again (overwriting) so late metrics still land.
  Status WriteNow() const;

  const std::string& metrics_path() const { return metrics_path_; }
  const std::string& trace_path() const { return trace_path_; }
  const std::string& timeline_path() const { return timeline_path_; }
  const std::string& profile_json_path() const { return profile_json_path_; }
  const std::string& profile_folded_path() const {
    return profile_folded_path_;
  }

  // Overrides for the profile artifacts. By default the writer exports a
  // generic snapshot of the global profiler; a bench that builds a richer
  // document (per-variant attribution, a diff section) sets it here and the
  // writer emits that instead of clobbering it with the generic dump.
  void SetProfileDocument(std::string json);
  void SetProfileFolded(std::string folded);

 private:
  std::string metrics_path_;
  std::string trace_path_;
  std::string summary_path_;
  std::string forensics_json_path_;
  std::string forensics_text_path_;
  std::string timeline_path_;
  std::string profile_json_path_;
  std::string profile_folded_path_;
  std::string profile_document_;  // empty = export the generic snapshot
  std::string profile_folded_override_;
};

}  // namespace arthas

#endif  // ARTHAS_HARNESS_ARTIFACTS_H_
