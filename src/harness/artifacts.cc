#include "harness/artifacts.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <limits>
#include <mutex>
#include <set>

#include "common/logging.h"
#include "obs/flight_recorder.h"
#include "obs/forensics.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/timeseries.h"

namespace arthas {

namespace {

std::mutex& CellMutex() {
  static std::mutex* mutex = new std::mutex();
  return *mutex;
}

std::vector<CellRecord>& CellStore() {
  static std::vector<CellRecord>* store = new std::vector<CellRecord>();
  return *store;
}

Status WriteFile(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Internal("cannot open " + path + " for writing");
  }
  const size_t written = std::fwrite(content.data(), 1, content.size(), f);
  std::fclose(f);
  if (written != content.size()) {
    return Internal("short write to " + path);
  }
  return OkStatus();
}

}  // namespace

void RecordCell(CellRecord record) {
  std::lock_guard<std::mutex> lock(CellMutex());
  CellStore().push_back(std::move(record));
}

std::vector<CellRecord> CellRecords() {
  std::lock_guard<std::mutex> lock(CellMutex());
  return CellStore();
}

void ClearCellRecords() {
  std::lock_guard<std::mutex> lock(CellMutex());
  CellStore().clear();
}

std::string MetricsArtifactJson() {
  obs::JsonValue out = obs::MetricsRegistry::Global().SnapshotJson();
  obs::JsonValue cells = obs::JsonValue::Array();
  for (const CellRecord& record : CellRecords()) {
    obs::JsonValue cell = obs::JsonValue::Object();
    cell.Set("fault", obs::JsonValue(record.fault));
    cell.Set("solution", obs::JsonValue(record.solution));
    cell.Set("substrate", obs::JsonValue(record.substrate));
    cell.Set("recovered", obs::JsonValue(record.recovered));
    cell.Set("attempts", obs::JsonValue(int64_t{record.attempts}));
    cell.Set("mitigation_time_us",
             obs::JsonValue(record.mitigation_time_us));
    obs::JsonValue forensics = obs::JsonValue::Object();
    forensics.Set("lost_lines", obs::JsonValue(record.forensics_lost_lines));
    forensics.Set("open_transactions",
                  obs::JsonValue(record.forensics_open_txs));
    forensics.Set("open_sections",
                  obs::JsonValue(record.forensics_open_sections));
    forensics.Set("summary", obs::JsonValue(record.forensics_summary));
    cell.Set("forensics", std::move(forensics));
    obs::JsonValue deltas = obs::JsonValue::Object();
    for (const auto& [name, delta] : record.counter_deltas) {
      deltas.Set(name, obs::JsonValue(delta));
    }
    cell.Set("counter_deltas", std::move(deltas));
    cells.Append(std::move(cell));
  }
  out.Set("cells", std::move(cells));
  return out.Dump();
}

std::string TraceArtifactJson() {
  // Seq order; a phase is recorded when it closes, so this is completion
  // order (a nested phase precedes the phase around it).
  const std::vector<obs::FlightRecord> phases =
      obs::FlightRecorder::Phases().Snapshot();
  int64_t epoch_ns = std::numeric_limits<int64_t>::max();
  std::set<uint16_t> tids;
  for (const obs::FlightRecord& r : phases) {
    epoch_ns = std::min(epoch_ns, r.ts_ns - static_cast<int64_t>(r.size));
    tids.insert(r.tid);
  }
  obs::JsonValue trace_events = obs::JsonValue::Array();
  auto metadata = [&trace_events](const char* name, uint16_t tid,
                                  const char* label) {
    obs::JsonValue meta = obs::JsonValue::Object();
    meta.Set("name", obs::JsonValue(name));
    meta.Set("ph", obs::JsonValue("M"));
    meta.Set("pid", obs::JsonValue(int64_t{1}));
    meta.Set("tid", obs::JsonValue(int64_t{tid}));
    obs::JsonValue args = obs::JsonValue::Object();
    args.Set("name", obs::JsonValue(label));
    meta.Set("args", std::move(args));
    trace_events.Append(std::move(meta));
  };
  // Exactly one process_name row (a duplicate would make the viewer render
  // duplicate process groups), then one thread_name row per thread that
  // has events.
  metadata("process_name", 0, "arthas");
  for (const uint16_t tid : tids) {
    char label[32];
    std::snprintf(label, sizeof(label), "arthas-thread-%u",
                  static_cast<unsigned>(tid));
    metadata("thread_name", tid, label);
  }
  for (const obs::FlightRecord& r : phases) {
    const auto phase = static_cast<obs::FrPhase>(r.addr);
    obs::JsonValue ev = obs::JsonValue::Object();
    ev.Set("name", obs::JsonValue(obs::FrPhaseName(phase)));
    ev.Set("cat", obs::JsonValue("arthas"));
    ev.Set("ph", obs::JsonValue("X"));
    // Chrome trace timestamps are microseconds; keep sub-us precision as a
    // fractional part. Chrome's renderer drops zero-duration complete
    // events nested inside others, so every phase lasts at least 1 ns.
    const int64_t start_ns = r.ts_ns - static_cast<int64_t>(r.size);
    ev.Set("ts", obs::JsonValue(static_cast<double>(start_ns - epoch_ns) /
                                1000.0));
    ev.Set("dur", obs::JsonValue(
                      static_cast<double>(std::max<uint64_t>(r.size, 1)) /
                      1000.0));
    ev.Set("pid", obs::JsonValue(int64_t{1}));
    ev.Set("tid", obs::JsonValue(int64_t{r.tid}));
    if (const char* arg_name = obs::FrPhaseArgName(phase)) {
      obs::JsonValue args = obs::JsonValue::Object();
      args.Set(arg_name, obs::JsonValue(r.arg));
      ev.Set("args", std::move(args));
    }
    trace_events.Append(std::move(ev));
  }
  obs::JsonValue out = obs::JsonValue::Object();
  out.Set("traceEvents", std::move(trace_events));
  out.Set("displayTimeUnit", obs::JsonValue("ns"));
  // A thread that closed more phases than its ring holds lost its oldest
  // ones; say so instead of exporting a silently truncated trace.
  const uint64_t dropped = obs::FlightRecorder::Phases().dropped();
  if (dropped > 0) {
    obs::JsonValue other = obs::JsonValue::Object();
    other.Set("dropped_phases", obs::JsonValue(dropped));
    out.Set("otherData", std::move(other));
    ARTHAS_LOG(Warning) << "trace artifact lost its " << dropped
                        << " oldest phases to ring wraparound";
  }
  return out.Dump();
}

ObsArtifactWriter::ObsArtifactWriter(int argc, char** argv) {
  std::string prefix;
  // The profile flags take an *optional* path ("--profile-json --diff"
  // works); a following argument that looks like another flag is left alone
  // and a default filename is used instead.
  auto optional_path = [&](int& i, const char* fallback) -> std::string {
    if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
      return argv[++i];
    }
    return fallback;
  };
  for (int i = 1; i < argc; i++) {
    if (i + 1 >= argc) {
      if (std::strcmp(argv[i], "--profile-json") == 0) {
        profile_json_path_ = "profile.json";
      } else if (std::strcmp(argv[i], "--profile-folded") == 0) {
        profile_folded_path_ = "profile.folded";
      }
      break;
    }
    if (std::strcmp(argv[i], "--metrics-json") == 0) {
      metrics_path_ = argv[++i];
    } else if (std::strcmp(argv[i], "--trace-json") == 0) {
      trace_path_ = argv[++i];
    } else if (std::strcmp(argv[i], "--metrics-summary") == 0) {
      summary_path_ = argv[++i];
    } else if (std::strcmp(argv[i], "--forensics-json") == 0) {
      forensics_json_path_ = argv[++i];
    } else if (std::strcmp(argv[i], "--forensics-text") == 0) {
      forensics_text_path_ = argv[++i];
    } else if (std::strcmp(argv[i], "--timeline-json") == 0) {
      timeline_path_ = argv[++i];
    } else if (std::strcmp(argv[i], "--profile-json") == 0) {
      profile_json_path_ = optional_path(i, "profile.json");
    } else if (std::strcmp(argv[i], "--profile-folded") == 0) {
      profile_folded_path_ = optional_path(i, "profile.folded");
    } else if (std::strcmp(argv[i], "--obs-prefix") == 0) {
      prefix = argv[++i];
    }
  }
  if (!prefix.empty()) {
    // The convenience spelling: one DIR/stem derives every artifact path.
    // Explicit per-artifact flags keep priority regardless of flag order.
    if (metrics_path_.empty()) {
      metrics_path_ = prefix + ".metrics.json";
    }
    if (trace_path_.empty()) {
      trace_path_ = prefix + ".trace.json";
    }
    if (summary_path_.empty()) {
      summary_path_ = prefix + ".summary.txt";
    }
    if (forensics_json_path_.empty()) {
      forensics_json_path_ = prefix + ".forensics.json";
    }
    if (forensics_text_path_.empty()) {
      forensics_text_path_ = prefix + ".forensics.txt";
    }
    if (timeline_path_.empty()) {
      timeline_path_ = prefix + ".timeline.json";
    }
    if (profile_json_path_.empty()) {
      profile_json_path_ = prefix + ".profile.json";
    }
    if (profile_folded_path_.empty()) {
      profile_folded_path_ = prefix + ".profile.folded";
    }
  }
  // Asking for a profile artifact (directly or via --obs-prefix) means the
  // process's hot-path scopes should record; without this a generic bench
  // would export an all-zero profile. Benches that bracket their own
  // measured windows (bench_hotpath) turn the profiler back off before
  // their unprofiled timing passes.
  if (!profile_json_path_.empty() || !profile_folded_path_.empty()) {
    obs::PhaseProfiler::Global().set_enabled(true);
  }
}

void ObsArtifactWriter::SetProfileDocument(std::string json) {
  profile_document_ = std::move(json);
}

void ObsArtifactWriter::SetProfileFolded(std::string folded) {
  profile_folded_override_ = std::move(folded);
}

ObsArtifactWriter::~ObsArtifactWriter() {
  if (Status s = WriteNow(); !s.ok()) {
    ARTHAS_LOG(Error) << "failed to write observability artifacts: "
                      << s.ToString();
  }
}

Status ObsArtifactWriter::WriteNow() const {
  if (!metrics_path_.empty()) {
    ARTHAS_RETURN_IF_ERROR(WriteFile(metrics_path_, MetricsArtifactJson()));
  }
  if (!trace_path_.empty()) {
    ARTHAS_RETURN_IF_ERROR(WriteFile(trace_path_, TraceArtifactJson()));
  }
  if (!summary_path_.empty()) {
    std::string summary = obs::MetricsRegistry::Global().LatencyTable();
    summary += obs::MetricsRegistry::Global().SnapshotJsonString();
    summary += "\n";
    ARTHAS_RETURN_IF_ERROR(WriteFile(summary_path_, summary));
  }
  if (!forensics_json_path_.empty() || !forensics_text_path_.empty()) {
    // A run with no crash still produces a well-formed artifact: the
    // default report carries present=false and an explanatory summary.
    obs::ForensicsReport report =
        obs::LatestForensics().value_or(obs::ForensicsReport{});
    if (!forensics_json_path_.empty()) {
      ARTHAS_RETURN_IF_ERROR(
          WriteFile(forensics_json_path_, report.ToJsonString()));
    }
    if (!forensics_text_path_.empty()) {
      ARTHAS_RETURN_IF_ERROR(
          WriteFile(forensics_text_path_, report.ToText()));
    }
  }
  if (!timeline_path_.empty()) {
    ARTHAS_RETURN_IF_ERROR(WriteFile(
        timeline_path_,
        obs::TimelineArtifactJson(obs::TelemetrySampler::Global()).Dump()));
  }
  if (!profile_json_path_.empty()) {
    std::string document = profile_document_;
    if (document.empty()) {
      // Generic export: whatever the global profiler accumulated, as one
      // unnamed variant (ops unknown, so no per-op normalization).
      const obs::ProfileSnapshot snapshot =
          obs::PhaseProfiler::Global().Snapshot();
      std::vector<obs::JsonValue> variants;
      variants.push_back(obs::ProfileVariantJson("process", snapshot, 0, 0));
      document = obs::ProfileDocumentJson(std::move(variants)).Dump();
    }
    ARTHAS_RETURN_IF_ERROR(WriteFile(profile_json_path_, document));
  }
  if (!profile_folded_path_.empty()) {
    std::string folded = profile_folded_override_;
    if (folded.empty()) {
      folded = obs::FoldedStacks(obs::PhaseProfiler::Global().Snapshot(),
                                 "process");
    }
    ARTHAS_RETURN_IF_ERROR(WriteFile(profile_folded_path_, folded));
  }
  return OkStatus();
}

}  // namespace arthas
