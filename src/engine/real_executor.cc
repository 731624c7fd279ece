#include "engine/real_executor.h"

#include <algorithm>
#include <atomic>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "blas/block_ops.h"
#include "cluster/memory_tracker.h"
#include "common/logging.h"
#include "common/stopwatch.h"
#include "engine/aggregation.h"
#include "engine/pipeline.h"
#include "gpu/device.h"
#include "gpumm/streaming.h"
#include "matrix/serialize.h"
#include "obs/gpu_timeline.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace distme::engine {

namespace {

// One buffered output block of a task attempt, held until the commit point.
// `k_origin` is the k coordinate the partial came from (a box task's k0, a
// strided task's voxel k): aggregation merges partials for an output block
// in ascending k_origin, so the floating-point reduction order — and hence
// the result bits — is independent of worker count, prefetch depth, and
// arrival order.
struct PendingEmit {
  BlockIndex idx;
  Block block;
  int64_t k_origin = 0;
};

// A committed attempt's outputs, in flight from compute to the emit stage.
struct EmitBatch {
  int node = 0;
  std::vector<PendingEmit> outputs;
};

// A task whose first-attempt inputs were prefetched by the fetch stage.
// Moves through the per-worker BoundedQueue, so exactly one stage owns it
// at any instant. A failed prefetch travels as a null `inputs` plus the
// error in `fetch_status`; the compute stage treats it as a failed first
// attempt and retries synchronously.
struct StagedTask {
  int64_t index = -1;  // into the materialized task list
  std::unique_ptr<gpumm::StagedBlockSource> inputs;
  std::unique_ptr<MemoryTracker> tracker;
  Status fetch_status = Status::OK();
  bool injected = false;     // fetch_status is an injected mid-prefetch crash
  int64_t staged_bytes = 0;  // charged against the node's PrefetchGate
};

// Deterministic per-(task, attempt) crash decision — a pure function, so
// retry counts are identical across fault points, prefetch depths, and
// worker counts (the fetch stage and the compute stage can both evaluate
// it and agree).
bool CrashDecision(int64_t task_id, int attempt, double rate) {
  if (rate <= 0.0) return false;
  uint64_t h = static_cast<uint64_t>(task_id) * 0x9e3779b97f4a7c15ULL +
               static_cast<uint64_t>(attempt) * 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 29;
  return static_cast<double>(h >> 11) * 0x1.0p-53 < rate;
}

// Label for the distme.task.retries{reason} counter. Returns string
// literals so the flight recorder can keep the pointer without copying.
const char* RetryReason(const Status& status, bool injected) {
  if (injected) return "injected_crash";
  switch (status.code()) {
    case StatusCode::kOutOfMemory:
      return "out_of_memory";
    case StatusCode::kTimeout:
      return "timeout";
    default:
      return "error";
  }
}

}  // namespace

class RealExecutor::Impl {
 public:
  explicit Impl(ClusterConfig config) : config_(std::move(config)) {
    if (config_.has_gpu) {
      const int per_node = std::max(1, config_.gpu.devices_per_node);
      devices_.resize(static_cast<size_t>(config_.num_nodes));
      for (int n = 0; n < config_.num_nodes; ++n) {
        for (int d = 0; d < per_node; ++d) {
          devices_[static_cast<size_t>(n)].push_back(
              std::make_unique<gpu::Device>(config_.gpu, config_.hw));
        }
      }
    }
  }

  // Round-robin device assignment for a task on `node`.
  gpu::Device* DeviceFor(int node, int64_t task_id) {
    auto& node_devices = devices_[static_cast<size_t>(node)];
    return node_devices[static_cast<size_t>(
                            task_id % static_cast<int64_t>(
                                          node_devices.size()))]
        .get();
  }

  Result<RealRunResult> Run(const DistributedMatrix& a,
                            const DistributedMatrix& b,
                            const mm::Method& method,
                            const RealOptions& options) {
    mm::MMProblem problem{a.Descriptor(), b.Descriptor()};
    DISTME_RETURN_NOT_OK(problem.Validate());
    if (options.mode != ComputeMode::kCpu && !config_.has_gpu) {
      return Status::Invalid("GPU mode requested on a GPU-less cluster");
    }
    if (options.prefetch_depth < 0) {
      return Status::Invalid("prefetch_depth must be >= 0");
    }

    ComputeMode mode = options.mode;
    if (mode == ComputeMode::kGpuStreaming && !method.SupportsGpuStreaming()) {
      mode = ComputeMode::kGpuBlock;
    }

    // Observability: all per-run accounting lives in a metrics registry —
    // either the caller's (typically session-owned, spanning many runs) or a
    // private one. Counters are monotonic, so this run's contribution is the
    // delta from the values captured here.
    obs::MetricsRegistry run_metrics;
    obs::MetricsRegistry* metrics =
        options.metrics != nullptr ? options.metrics : &run_metrics;
    obs::Tracer* tracer = options.tracer;
    obs::FlightRecorder* flight = options.flight;

    obs::Counter* repartition_bytes =
        metrics->GetCounter("distme.shuffle.repartition_bytes");
    obs::Counter* aggregation_bytes =
        metrics->GetCounter("distme.shuffle.aggregation_bytes");
    obs::Counter* remote_fetches =
        metrics->GetCounter("distme.shuffle.remote_fetches");
    obs::Counter* serialize_roundtrips =
        metrics->GetCounter("distme.shuffle.serialize_roundtrips");
    obs::Counter* task_attempts = metrics->GetCounter("distme.task.attempts");
    obs::Counter* fetch_nanos =
        metrics->GetCounter("distme.step.repartition_nanos");
    obs::Counter* compute_nanos =
        metrics->GetCounter("distme.step.multiply_nanos");
    obs::Counter* agg_nanos =
        metrics->GetCounter("distme.step.aggregation_nanos");
    obs::Histogram* task_seconds =
        metrics->GetHistogram("distme.task.seconds");
    obs::Gauge* peak_memory =
        metrics->GetGauge("distme.task.peak_memory_bytes");
    obs::Gauge* used_memory =
        metrics->GetGauge("distme.memory.task_used_bytes");
    obs::Counter* oom_rejections =
        metrics->GetCounter("distme.memory.oom_rejections");
    // Prefetch-pipeline instruments (stay at zero when prefetch_depth == 0).
    obs::Counter* prefetch_hits =
        metrics->GetCounter("distme.pipeline.prefetch_hits");
    obs::Counter* prefetch_stalls =
        metrics->GetCounter("distme.pipeline.prefetch_stalls");
    obs::Counter* pipeline_stall_nanos =
        metrics->GetCounter("distme.pipeline.stall_nanos");
    obs::Counter* backpressure_waits =
        metrics->GetCounter("distme.pipeline.backpressure_waits");

    // One consistent cut over the whole registry (a single lock acquisition)
    // rather than per-instrument reads: when two Sessions share a process,
    // interleaved reads would attribute another run's traffic to this one.
    const obs::MetricsSnapshot base = metrics->Snapshot();
    const int64_t base_repartition_bytes =
        base.TotalValue("distme.shuffle.repartition_bytes");
    const int64_t base_aggregation_bytes =
        base.TotalValue("distme.shuffle.aggregation_bytes");
    const int64_t base_fetch_nanos =
        base.TotalValue("distme.step.repartition_nanos");
    const int64_t base_compute_nanos =
        base.TotalValue("distme.step.multiply_nanos");
    const int64_t base_agg_nanos =
        base.TotalValue("distme.step.aggregation_nanos");
    const int64_t base_retries = base.TotalValue("distme.task.retries");
    const int64_t base_prefetch_hits =
        base.TotalValue("distme.pipeline.prefetch_hits");
    const int64_t base_prefetch_stalls =
        base.TotalValue("distme.pipeline.prefetch_stalls");
    const int64_t base_stall_nanos =
        base.TotalValue("distme.pipeline.stall_nanos");
    const int64_t base_backpressure_waits =
        base.TotalValue("distme.pipeline.backpressure_waits");
    obs::CommMatrixSnapshot comm_base;
    if (options.comm != nullptr) comm_base = options.comm->Snapshot();
    // Gauges describe the current run; the peak resets at each run start.
    peak_memory->Set(0);
    metrics->GetGauge("distme.pipeline.prefetch_depth")
        ->Set(options.prefetch_depth);

    const int driver_pid = config_.num_nodes;  // trace track for the driver
    if (tracer != nullptr && tracer->enabled()) {
      for (int n = 0; n < config_.num_nodes; ++n) {
        tracer->SetProcessName(n, "node" + std::to_string(n));
      }
      tracer->SetProcessName(driver_pid, "driver");
    }

    // Materialize the plan (the scheduler decision: task order + placement).
    std::vector<mm::LocalTask> tasks;
    {
      obs::Tracer::ScopedTrack track(driver_pid, 0);
      obs::TraceSpan plan_span(tracer, "sched.plan", "sched");
      DISTME_RETURN_NOT_OK(method.ForEachTask(
          problem, config_, [&tasks](const mm::LocalTask& t) {
            tasks.push_back(t);
            return Status::OK();
          }));
      if (options.lpt_scheduling) {
        std::stable_sort(tasks.begin(), tasks.end(),
                         [](const mm::LocalTask& l, const mm::LocalTask& r) {
                           return l.voxels.size() > r.voxels.size();
                         });
      }
      plan_span.AddArg("method", std::string(method.name()));
      plan_span.AddArg("tasks", static_cast<int64_t>(tasks.size()));
      plan_span.AddArg("lpt", static_cast<int64_t>(options.lpt_scheduling));
    }
    // Attach (or detach) the run's recorder to every device before any task
    // touches one: schema-3 interval events carry the device's (node,
    // ordinal) identity. `seq_before_run` lets the end-of-run overlap
    // analysis cut the ring to exactly this run's events.
    uint64_t seq_before_run = 0;
    if (config_.has_gpu) {
      for (size_t n = 0; n < devices_.size(); ++n) {
        for (size_t d = 0; d < devices_[n].size(); ++d) {
          devices_[n][d]->AttachFlight(flight, static_cast<int32_t>(n),
                                       static_cast<int32_t>(d));
        }
      }
    }
    if (flight != nullptr) {
      seq_before_run = flight->TotalRecorded();
      flight->Record(obs::FlightEventType::kRunStart, /*node=*/-1,
                     /*slot=*/-1, static_cast<int64_t>(tasks.size()));
    }

    const bool needs_agg = method.NeedsAggregation(problem);
    auto output = std::make_shared<DistributedMatrix>(
        BlockedShape{a.shape().rows, b.shape().cols, a.shape().block_size},
        config_.num_nodes, Partitioner::Hash(config_.num_nodes));

    // Aggregation state: partial C blocks keyed by (i, j) and k_origin,
    // reduced in ascending k_origin by the finalize step.
    PartialTable agg_partials;

    std::atomic<int64_t> next_task{0};
    std::mutex failure_mutex;
    Status failure = Status::OK();

    Stopwatch total_clock;

    auto record_failure = [&](Status st) {
      std::lock_guard<std::mutex> lock(failure_mutex);
      if (failure.ok()) failure = std::move(st);
    };
    auto run_failed = [&]() {
      std::lock_guard<std::mutex> lock(failure_mutex);
      return !failure.ok();
    };

    auto fetch = [&](const DistributedMatrix& m, BlockIndex idx, int node,
                     MemoryTracker* tracker) -> Result<Block> {
      bool crossed = false;
      obs::TraceSpan span(tracer, "shuffle.fetch", "shuffle");
      DISTME_ASSIGN_OR_RETURN(Block blk, m.Get(idx, node, &crossed));
      if (crossed) {
        const int64_t wire = SerializedBlockBytes(blk);
        repartition_bytes->Add(wire);
        remote_fetches->Add(1);
        if (options.comm != nullptr) {
          options.comm->Record(obs::CommStage::kRepartition, m.NodeOf(idx),
                               node, wire);
        }
        if (flight != nullptr) {
          // node = destination (the fetching task), slot = source node.
          flight->Record(obs::FlightEventType::kBlockFetch, node,
                         m.NodeOf(idx), wire);
        }
        span.AddArg("bytes", wire);
        if (options.serialize_transfers) {
          // Round-trip through the wire format, as a real shuffle would.
          obs::TraceSpan ser_span(tracer, "shuffle.serialize", "shuffle");
          serialize_roundtrips->Add(1);
          DISTME_ASSIGN_OR_RETURN(blk, DeserializeBlock(SerializeBlock(blk)));
        }
      } else {
        span.Cancel();  // node-local read, not a shuffle transfer
      }
      if (tracker != nullptr) {
        DISTME_RETURN_NOT_OK(tracker->Allocate(blk.SizeBytes()));
      }
      return blk;
    };

    // Fetches every input block of `task` into `inputs`. Box tasks fetch
    // each distinct block once (communication sharing); strided tasks fetch
    // per voxel. When `crash_mid_prefetch`, the injected crash strikes right
    // after the first block lands — the kMidPrefetch fault point.
    auto fetch_inputs = [&](const mm::LocalTask& task, int node,
                            gpumm::StagedBlockSource* inputs,
                            MemoryTracker* tracker_ptr,
                            bool crash_mid_prefetch, bool* injected,
                            int64_t* staged_bytes) -> Status {
      Status fetch_status = Status::OK();
      auto need_a = [&](int64_t i, int64_t k) -> Status {
        if (task.inputs_shared && inputs->HasA(i, k)) return Status::OK();
        DISTME_ASSIGN_OR_RETURN(Block blk,
                                fetch(a, BlockIndex{i, k}, node, tracker_ptr));
        *staged_bytes += blk.SizeBytes();
        inputs->StageA(i, k, std::move(blk));
        return Status::OK();
      };
      auto need_b = [&](int64_t k, int64_t j) -> Status {
        if (task.inputs_shared && inputs->HasB(k, j)) return Status::OK();
        DISTME_ASSIGN_OR_RETURN(Block blk,
                                fetch(b, BlockIndex{k, j}, node, tracker_ptr));
        *staged_bytes += blk.SizeBytes();
        inputs->StageB(k, j, std::move(blk));
        return Status::OK();
      };
      task.voxels.ForEach([&](mm::Voxel v) {
        if (!fetch_status.ok()) return;
        Status st = need_a(v.i, v.k);
        if (st.ok() && crash_mid_prefetch) {
          // The attempt dies holding its first in-flight prefetched block.
          *injected = true;
          st = Status::Internal("injected task crash");
        }
        if (st.ok()) st = need_b(v.k, v.j);
        if (!st.ok()) fetch_status = std::move(st);
      });
      return fetch_status;
    };

    auto emit = [&](BlockIndex idx, Block block, int64_t k_origin,
                    int producer_node) -> Status {
      if (!needs_agg) {
        // Final block — write in place (output writes are not part of the
        // shuffle cost, matching Table 2's zero aggregation for BMM).
        if (block.IsZero()) return Status::OK();
        return output->Put(idx, std::move(block));
      }
      const int reducer_node = output->NodeOf(idx);
      if (reducer_node != producer_node) {
        const int64_t wire = SerializedBlockBytes(block);
        aggregation_bytes->Add(wire);
        if (options.comm != nullptr) {
          options.comm->Record(obs::CommStage::kAggregation, producer_node,
                               reducer_node, wire);
        }
        if (flight != nullptr) {
          // node = producer, slot = reducer node receiving the partial.
          flight->Record(obs::FlightEventType::kBlockEmit, producer_node,
                         reducer_node, wire);
        }
        obs::TraceSpan span(tracer, "shuffle.aggregate", "shuffle");
        span.AddArg("bytes", wire);
        span.AddArg("reducer", static_cast<int64_t>(reducer_node));
        if (options.serialize_transfers) {
          serialize_roundtrips->Add(1);
          DISTME_ASSIGN_OR_RETURN(block,
                                  DeserializeBlock(SerializeBlock(block)));
        }
      }
      return agg_partials.Add(idx, k_origin, std::move(block));
    };

    // Compute phase of one attempt: consumes the staged inputs, buffers the
    // attempt's output partials into `outputs`. Side-effect free w.r.t. the
    // output matrix — everything before the commit is replayable.
    auto compute_task = [&](const mm::LocalTask& task, int node, int slot,
                            gpumm::StagedBlockSource& inputs,
                            MemoryTracker* tracker_ptr,
                            std::vector<PendingEmit>* outputs) -> Status {
      Stopwatch compute_clock;
      double gpu_seconds = 0;  // time this attempt spent bound on the GPU
      obs::TraceSpan compute_span(tracer, "task.compute", "task");
      if (mode == ComputeMode::kGpuStreaming && task.voxels.is_box()) {
        gpu::Device* device = DeviceFor(node, task.id);
        Stopwatch gpu_clock;
        DISTME_ASSIGN_OR_RETURN(
            gpumm::GpuCuboidResult gpu_result,
            gpumm::RunCuboidOnGpu(task.voxels, a.shape(), b.shape(), &inputs,
                                  device, config_.gpu_task_memory_bytes,
                                  tracer, flight));
        gpu_seconds += gpu_clock.ElapsedSeconds();
        for (auto& [key, dense] : gpu_result.c_blocks) {
          outputs->push_back(PendingEmit{BlockIndex{key.first, key.second},
                                         Block::Dense(std::move(dense)),
                                         task.voxels.k0()});
        }
      } else if (task.aggregate_local && task.voxels.is_box()) {
        // Accumulate over the task's k range; emit one block per (i, j).
        const auto& box = task.voxels;
        for (int64_t i = box.i0(); i < box.i1(); ++i) {
          for (int64_t j = box.j0(); j < box.j1(); ++j) {
            DenseMatrix acc(a.shape().BlockRowsAt(i),
                            b.shape().BlockColsAt(j));
            if (tracker_ptr != nullptr) {
              DISTME_RETURN_NOT_OK(tracker_ptr->Allocate(acc.SizeBytes()));
            }
            for (int64_t k = box.k0(); k < box.k1(); ++k) {
              const Block& ab = inputs.A(i, k);
              const Block& bb = inputs.B(k, j);
              if (ab.IsZero() || bb.IsZero()) continue;
              if (mode == ComputeMode::kGpuBlock) {
                DISTME_RETURN_NOT_OK(
                    RunBlockKernel(node, task.id, ab, bb, &acc, &gpu_seconds));
              } else {
                DISTME_RETURN_NOT_OK(blas::MultiplyAccumulate(ab, bb, &acc));
              }
            }
            if (acc.AnyNonZero()) {
              outputs->push_back(PendingEmit{BlockIndex{i, j},
                                             Block::Dense(std::move(acc)),
                                             box.k0()});
            }
            if (tracker_ptr != nullptr) {
              tracker_ptr->Free(0);  // acc ownership moved to the shuffle
            }
          }
        }
      } else {
        // Per-voxel products (RMM): one intermediate block per voxel.
        Status voxel_status = Status::OK();
        task.voxels.ForEach([&](mm::Voxel v) {
          if (!voxel_status.ok()) return;
          const Block& ab = inputs.A(v.i, v.k);
          const Block& bb = inputs.B(v.k, v.j);
          if (ab.IsZero() || bb.IsZero()) return;
          DenseMatrix acc(a.shape().BlockRowsAt(v.i),
                          b.shape().BlockColsAt(v.j));
          Status st =
              mode == ComputeMode::kGpuBlock
                  ? RunBlockKernel(node, task.id, ab, bb, &acc, &gpu_seconds)
                  : blas::MultiplyAccumulate(ab, bb, &acc);
          if (st.ok() && acc.AnyNonZero()) {
            outputs->push_back(PendingEmit{BlockIndex{v.i, v.j},
                                           Block::Dense(std::move(acc)),
                                           v.k});
          }
          if (!st.ok()) voxel_status = std::move(st);
        });
        DISTME_RETURN_NOT_OK(voxel_status);
      }
      compute_span.End();
      compute_nanos->Add(
          static_cast<int64_t>(compute_clock.ElapsedSeconds() * 1e9));
      if (flight != nullptr && gpu_seconds > 0) {
        flight->RecordEdge(obs::FlightEdgeKind::kGpuWait, node, slot, task.id,
                           static_cast<int64_t>(gpu_seconds * 1e6));
      }
      return Status::OK();
    };

    // One synchronous attempt: fetch + compute on the calling thread, the
    // legacy (depth 0) execution path — also the retry path at any depth.
    // Returns the pre-commit status; on OK, `*outputs` is ready to commit.
    // `*fetch_seconds` is the time spent fetching inputs.
    auto run_attempt_sync = [&](const mm::LocalTask& task, int slot,
                                bool crash, std::vector<PendingEmit>* outputs,
                                bool* injected,
                                double* fetch_seconds) -> Status {
      const int node = static_cast<int>(task.id % config_.num_nodes);
      MemoryTracker tracker("task " + std::to_string(task.id),
                                     config_.task_memory_bytes);
      tracker.AttachMetrics(used_memory, peak_memory, oom_rejections);
      tracker.AttachFlight(flight, node, slot);
      MemoryTracker* tracker_ptr =
          options.enforce_task_memory ? &tracker : nullptr;

      gpumm::StagedBlockSource inputs;
      Stopwatch fetch_clock;
      obs::TraceSpan fetch_span(tracer, "task.fetch", "task");
      int64_t staged_bytes = 0;
      Status fetch_status = fetch_inputs(
          task, node, &inputs, tracker_ptr,
          crash && options.fault_point == FaultPoint::kMidPrefetch, injected,
          &staged_bytes);
      fetch_span.End();
      *fetch_seconds = fetch_clock.ElapsedSeconds();
      fetch_nanos->Add(static_cast<int64_t>(*fetch_seconds * 1e9));
      if (flight != nullptr) {
        flight->RecordEdge(obs::FlightEdgeKind::kFetchWait, node, slot,
                           task.id,
                           static_cast<int64_t>(*fetch_seconds * 1e6));
      }
      DISTME_RETURN_NOT_OK(fetch_status);
      if (crash && options.fault_point == FaultPoint::kBeforeCompute) {
        // The fetched inputs (and their reservations) die with the attempt.
        *injected = true;
        return Status::Internal("injected task crash");
      }
      DISTME_RETURN_NOT_OK(
          compute_task(task, node, slot, inputs, tracker_ptr, outputs));
      if (crash && options.fault_point == FaultPoint::kBeforeCommit) {
        // Injected fault: the attempt dies holding its uncommitted outputs.
        *injected = true;
        outputs->clear();
        return Status::Internal("injected task crash");
      }
      return Status::OK();
    };

    // How an attempt's buffered outputs reach the aggregation/output matrix:
    // inline at depth 0, via the per-worker emit queue at depth > 0. Set
    // below, once the pipeline (if any) exists; execute_task calls through
    // this indirection.
    std::function<Status(int, int, std::vector<PendingEmit>&&)> commit_fn;

    // The attempt loop for one task on compute slot `slot`. When `staged`
    // is non-null (depth > 0) the first attempt consumes the prefetched
    // inputs and its fetch_wait is the pop stall (`pop_stall_seconds`,
    // started at flight timestamp `pipeline_start_us`); retries fall back
    // to the synchronous path. At depth > 0 a null `staged` means the
    // worker found nothing staged and fetches inline: that first attempt's
    // fetch counts as a pipeline stall. Commit errors are run-fatal — a
    // partially applied commit is never replayed, so reducer blocks cannot
    // be double-counted.
    auto execute_task = [&](const mm::LocalTask& task, int slot,
                            StagedTask* staged, int64_t pipeline_start_us,
                            double pop_stall_seconds) -> Status {
      const int node = static_cast<int>(task.id % config_.num_nodes);
      Status st = Status::OK();
      for (int attempt = 0; attempt < options.max_task_attempts; ++attempt) {
        const bool crash =
            CrashDecision(task.id, attempt, options.task_failure_rate);
        const bool pipelined = staged != nullptr && attempt == 0;
        task_attempts->Add(1);
        if (flight != nullptr) {
          if (pipelined) {
            // The attempt began when the worker started waiting on the
            // fetch stage, so the stall edge below lands inside the
            // attempt's [start, finish] span.
            flight->RecordAt(pipeline_start_us,
                             obs::FlightEventType::kTaskStart, node, slot,
                             task.id, attempt);
          } else {
            flight->Record(obs::FlightEventType::kTaskStart, node, slot,
                           task.id, attempt);
          }
        }
        const int wd_token =
            options.watchdog != nullptr
                ? options.watchdog->TaskStarted(task.id, node, slot)
                : -1;
        Stopwatch attempt_clock;
        obs::TraceSpan attempt_span(tracer, "task.attempt", "task");
        attempt_span.AddArg("task", task.id);
        attempt_span.AddArg("attempt", static_cast<int64_t>(attempt));
        attempt_span.AddArg("voxels", task.voxels.size());
        std::vector<PendingEmit> outputs;
        bool injected = false;
        if (pipelined) {
          // With prefetch, the attempt's fetch_wait is only the time the
          // worker actually stalled waiting for staged inputs — the
          // overlap the critical-path analyzer should see.
          if (flight != nullptr) {
            flight->RecordEdge(
                obs::FlightEdgeKind::kFetchWait, node, slot, task.id,
                static_cast<int64_t>(pop_stall_seconds * 1e6));
          }
          st = staged->fetch_status;
          injected = staged->injected;
          if (st.ok() && crash &&
              options.fault_point == FaultPoint::kBeforeCompute) {
            injected = true;
            st = Status::Internal("injected task crash");
          }
          if (st.ok()) {
            MemoryTracker* tracker_ptr =
                options.enforce_task_memory ? staged->tracker.get() : nullptr;
            st = compute_task(task, node, slot, *staged->inputs, tracker_ptr,
                              &outputs);
          }
          if (st.ok() && crash &&
              options.fault_point == FaultPoint::kBeforeCommit) {
            injected = true;
            outputs.clear();
            st = Status::Internal("injected task crash");
          }
          // Attempt 0 is done with the staged state either way. A crashed
          // attempt releases its prefetched blocks and memory reservations
          // here — the lineage contract at the pipeline boundary.
          staged->inputs.reset();
          staged->tracker.reset();
        } else {
          double fetch_seconds = 0;
          st = run_attempt_sync(task, slot, crash, &outputs, &injected,
                                &fetch_seconds);
          if (attempt == 0 && options.prefetch_depth > 0) {
            prefetch_stalls->Add(1);
            pipeline_stall_nanos->Add(
                static_cast<int64_t>(fetch_seconds * 1e9));
          }
        }
        bool commit_failed = false;
        if (st.ok() && !outputs.empty()) {
          Status commit_status = commit_fn(slot, node, std::move(outputs));
          if (!commit_status.ok()) {
            commit_failed = true;
            st = std::move(commit_status);
          }
        }
        const double attempt_seconds =
            (pipelined ? pop_stall_seconds : 0.0) +
            attempt_clock.ElapsedSeconds();
        task_seconds->Observe(attempt_seconds);
        if (!st.ok()) attempt_span.AddArg("error", st.ToString());
        attempt_span.End();
        if (options.watchdog != nullptr) {
          options.watchdog->TaskFinished(wd_token);
        }
        if (flight != nullptr) {
          flight->Record(obs::FlightEventType::kTaskFinish, node, slot,
                         task.id,
                         static_cast<int64_t>(attempt_seconds * 1e6));
        }
        if (st.ok()) break;
        if (commit_failed) break;  // a partial commit must never be retried
        const char* reason = RetryReason(st, injected);
        if (flight != nullptr) {
          flight->Record(obs::FlightEventType::kTaskRetry, node, slot,
                         task.id, attempt, reason);
        }
        DISTME_LOG(Warning) << "task " << task.id << " attempt " << attempt
                            << " failed (" << reason << "): "
                            << st.ToString();
        metrics->GetCounter("distme.task.retries", {{"reason", reason}})
            ->Add(1);
      }
      return st;
    };

    // Worker pool: one compute thread per task slot. At depth > 0 each
    // compute worker w is flanked by its own fetch thread (stages the next
    // up-to-depth tasks' inputs through stage_queues[w], throttled per node
    // by a PrefetchGate) and its own emit thread (drains committed outputs
    // through emit_queues[w]) — fetch, compute, and emit overlap. A worker
    // whose queue is empty claims the next task and runs it inline rather
    // than sleeping until its fetch thread is scheduled again.
    const int num_workers = static_cast<int>(
        std::min<int64_t>(config_.total_slots(),
                          static_cast<int64_t>(tasks.size())));
    const int pool = std::max(num_workers, 1);
    const bool pipelined_run = options.prefetch_depth > 0;
    if (tracer != nullptr && tracer->enabled()) {
      // Workers pull tasks for any node, so each (node, slot) track can host
      // spans from any worker; name them all up front.
      for (int n = 0; n < config_.num_nodes; ++n) {
        for (int w = 0; w < pool; ++w) {
          tracer->SetThreadName(n, w, "slot" + std::to_string(w));
          if (pipelined_run) {
            tracer->SetThreadName(n, pool + w, "fetch" + std::to_string(w));
            tracer->SetThreadName(n, 2 * pool + w,
                                  "emit" + std::to_string(w));
          }
        }
      }
    }

    std::vector<std::unique_ptr<PrefetchGate>> gates;
    std::vector<std::unique_ptr<BoundedQueue<StagedTask>>> stage_queues;
    std::vector<std::unique_ptr<BoundedQueue<EmitBatch>>> emit_queues;
    if (pipelined_run) {
      const auto depth = static_cast<size_t>(options.prefetch_depth);
      const int64_t staging_budget = options.prefetch_staging_bytes > 0
                                         ? options.prefetch_staging_bytes
                                         : config_.node_memory_bytes;
      for (int n = 0; n < config_.num_nodes; ++n) {
        gates.push_back(std::make_unique<PrefetchGate>(staging_budget));
      }
      for (int w = 0; w < pool; ++w) {
        stage_queues.push_back(
            std::make_unique<BoundedQueue<StagedTask>>(depth));
        emit_queues.push_back(std::make_unique<BoundedQueue<EmitBatch>>(depth));
      }
      commit_fn = [&](int slot, int node,
                      std::vector<PendingEmit>&& outputs) -> Status {
        // Hand the committed batch to the emit stage. Push only fails when
        // the run is already tearing down on a recorded failure, and then
        // dropping the batch is moot.
        EmitBatch batch;
        batch.node = node;
        batch.outputs = std::move(outputs);
        (void)emit_queues[static_cast<size_t>(slot)]->Push(std::move(batch));
        return Status::OK();
      };
    } else {
      commit_fn = [&](int /*slot*/, int node,
                      std::vector<PendingEmit>&& outputs) -> Status {
        for (PendingEmit& pe : outputs) {
          DISTME_RETURN_NOT_OK(
              emit(pe.idx, std::move(pe.block), pe.k_origin, node));
        }
        return Status::OK();
      };
    }

    // Claims the next unclaimed task for worker `w` and runs it with a
    // synchronous fetch. Returns false once every task is claimed or the
    // run has failed.
    auto run_next_inline = [&](int w) -> bool {
      const int64_t t = next_task.fetch_add(1, std::memory_order_relaxed);
      if (t >= static_cast<int64_t>(tasks.size())) return false;
      if (run_failed()) return false;
      const mm::LocalTask& task = tasks[static_cast<size_t>(t)];
      const int node = static_cast<int>(task.id % config_.num_nodes);
      // All spans opened under this worker (task body, shuffle transfers,
      // GPU chunks) land on the (node, slot) track.
      obs::Tracer::ScopedTrack track(node, w);
      Status st = execute_task(task, w, /*staged=*/nullptr,
                               /*pipeline_start_us=*/0,
                               /*pop_stall_seconds=*/0.0);
      if (!st.ok()) record_failure(std::move(st));
      return true;
    };

    std::vector<std::thread> fetchers;
    std::vector<std::thread> emitters;
    std::vector<std::thread> workers;
    workers.reserve(static_cast<size_t>(pool));
    if (pipelined_run) {
      fetchers.reserve(static_cast<size_t>(pool));
      emitters.reserve(static_cast<size_t>(pool));
      for (int w = 0; w < pool; ++w) {
        // Fetch stage: claims tasks from the shared cursor and prefetches
        // their first-attempt inputs ahead of worker w's compute.
        fetchers.emplace_back([&, w]() {
          while (true) {
            const int64_t t =
                next_task.fetch_add(1, std::memory_order_relaxed);
            if (t >= static_cast<int64_t>(tasks.size())) break;
            if (run_failed()) break;
            const mm::LocalTask& task = tasks[static_cast<size_t>(t)];
            const int node = static_cast<int>(task.id % config_.num_nodes);
            obs::Tracer::ScopedTrack track(node, pool + w);
            if (gates[static_cast<size_t>(node)]->WaitForHeadroom()) {
              backpressure_waits->Add(1);
            }
            StagedTask staged;
            staged.index = t;
            staged.inputs = std::make_unique<gpumm::StagedBlockSource>();
            staged.tracker = std::make_unique<MemoryTracker>(
                "task " + std::to_string(task.id), config_.task_memory_bytes);
            staged.tracker->AttachMetrics(used_memory, peak_memory,
                                          oom_rejections);
            staged.tracker->AttachFlight(flight, node, w);
            MemoryTracker* tracker_ptr =
                options.enforce_task_memory ? staged.tracker.get() : nullptr;
            const bool crash_mid =
                options.fault_point == FaultPoint::kMidPrefetch &&
                CrashDecision(task.id, /*attempt=*/0,
                              options.task_failure_rate);
            Stopwatch fetch_clock;
            obs::TraceSpan fetch_span(tracer, "task.prefetch", "task");
            int64_t staged_bytes = 0;
            bool injected = false;
            staged.fetch_status =
                fetch_inputs(task, node, staged.inputs.get(), tracker_ptr,
                             crash_mid, &injected, &staged_bytes);
            fetch_span.End();
            fetch_nanos->Add(
                static_cast<int64_t>(fetch_clock.ElapsedSeconds() * 1e9));
            staged.injected = injected;
            if (!staged.fetch_status.ok()) {
              // Lineage contract: a crashed or failed prefetch releases its
              // in-flight blocks and reservations before handover; the
              // compute stage sees a failed first attempt and retries
              // synchronously.
              staged.inputs.reset();
              staged.tracker.reset();
              staged.staged_bytes = 0;
            } else {
              staged.staged_bytes = staged_bytes;
              gates[static_cast<size_t>(node)]->Charge(staged_bytes);
            }
            const int64_t charged = staged.staged_bytes;
            if (!stage_queues[static_cast<size_t>(w)]->Push(
                    std::move(staged))) {
              // Consumer closed the queue (failure teardown).
              gates[static_cast<size_t>(node)]->Release(charged);
              break;
            }
          }
          stage_queues[static_cast<size_t>(w)]->Close();
        });
        // Emit stage: applies committed output batches to the aggregation
        // maps / output matrix while worker w already computes the next
        // task. Emit errors are run-fatal (see execute_task).
        emitters.emplace_back([&, w]() {
          while (std::optional<EmitBatch> batch =
                     emit_queues[static_cast<size_t>(w)]->Pop()) {
            if (run_failed()) continue;  // drain without emitting
            obs::Tracer::ScopedTrack track(batch->node, 2 * pool + w);
            for (PendingEmit& pe : batch->outputs) {
              Status st =
                  emit(pe.idx, std::move(pe.block), pe.k_origin, batch->node);
              if (!st.ok()) {
                record_failure(std::move(st));
                break;
              }
            }
          }
        });
        // Compute stage: staged tasks first; with none staged, an inline
        // task; once every task is claimed, wait for the staged tail.
        workers.emplace_back([&, w]() {
          while (true) {
            std::optional<StagedTask> popped =
                stage_queues[static_cast<size_t>(w)]->TryPop();
            if (!popped.has_value() && run_next_inline(w)) continue;
            Stopwatch pop_clock;
            const int64_t wait_begin_us =
                flight != nullptr ? flight->NowMicros() : 0;
            bool stalled = false;
            if (!popped.has_value()) {
              popped = stage_queues[static_cast<size_t>(w)]->Pop(&stalled);
            }
            if (!popped.has_value()) break;  // closed and fully drained
            const double stall_seconds =
                stalled ? pop_clock.ElapsedSeconds() : 0.0;
            StagedTask staged = std::move(*popped);
            const mm::LocalTask& task =
                tasks[static_cast<size_t>(staged.index)];
            const int node = static_cast<int>(task.id % config_.num_nodes);
            // The staged bytes leave the prefetch window the moment compute
            // takes ownership.
            gates[static_cast<size_t>(node)]->Release(staged.staged_bytes);
            if (stalled) {
              prefetch_stalls->Add(1);
              pipeline_stall_nanos->Add(
                  static_cast<int64_t>(stall_seconds * 1e9));
            } else {
              prefetch_hits->Add(1);
            }
            if (run_failed()) break;  // `staged` dtor releases its state
            obs::Tracer::ScopedTrack track(node, w);
            Status st =
                execute_task(task, w, &staged, wait_begin_us, stall_seconds);
            if (!st.ok()) record_failure(std::move(st));
          }
          // Teardown: stop our fetch thread and return the gate charges of
          // anything it had already staged.
          stage_queues[static_cast<size_t>(w)]->Close();
          while (std::optional<StagedTask> rest =
                     stage_queues[static_cast<size_t>(w)]->Pop()) {
            const mm::LocalTask& task =
                tasks[static_cast<size_t>(rest->index)];
            gates[static_cast<size_t>(task.id % config_.num_nodes)]->Release(
                rest->staged_bytes);
          }
        });
      }
    } else {
      for (int w = 0; w < pool; ++w) {
        workers.emplace_back([&, w]() {
          while (run_next_inline(w)) {
          }
        });
      }
    }
    for (auto& th : workers) th.join();
    for (auto& th : fetchers) th.join();
    for (auto& q : emit_queues) q->Close();
    for (auto& th : emitters) th.join();

    int64_t queue_high_water = 0;
    for (auto& q : stage_queues) {
      queue_high_water =
          std::max(queue_high_water, static_cast<int64_t>(q->high_water()));
    }

    RealRunResult result;
    result.report.method_name = method.name();
    result.report.mode = mode;
    result.report.num_tasks = static_cast<int64_t>(tasks.size());
    if (pipelined_run) {
      const obs::MetricsSnapshot pipe_cut = metrics->Snapshot();
      result.report.pipeline.prefetch_depth = options.prefetch_depth;
      result.report.pipeline.prefetch_hits =
          pipe_cut.TotalValue("distme.pipeline.prefetch_hits") -
          base_prefetch_hits;
      result.report.pipeline.prefetch_stalls =
          pipe_cut.TotalValue("distme.pipeline.prefetch_stalls") -
          base_prefetch_stalls;
      result.report.pipeline.stall_seconds =
          static_cast<double>(
              pipe_cut.TotalValue("distme.pipeline.stall_nanos") -
              base_stall_nanos) *
          1e-9;
      result.report.pipeline.backpressure_waits =
          pipe_cut.TotalValue("distme.pipeline.backpressure_waits") -
          base_backpressure_waits;
      result.report.pipeline.queue_high_water = queue_high_water;
      metrics->GetGauge("distme.pipeline.queue_high_water")
          ->Set(queue_high_water);
    }

    if (!failure.ok()) {
      result.report.task_retries =
          metrics->Snapshot().TotalValue("distme.task.retries") - base_retries;
      if (flight != nullptr) {
        flight->Record(obs::FlightEventType::kRunFinish, /*node=*/-1,
                       /*slot=*/-1, static_cast<int64_t>(tasks.size()),
                       /*b=*/1, "run failed");
        // Post-mortem: the run is about to surface an error Status; leave
        // the event trail on disk before the caller decides what to do.
        if (!options.flight_dump_path.empty()) {
          const Status dumped = flight->DumpToFile(options.flight_dump_path);
          if (dumped.ok()) {
            DISTME_LOG(Info) << "run failed; flight recorder dumped to "
                             << options.flight_dump_path;
          } else {
            DISTME_LOG(Warning) << "flight-recorder dump failed: "
                                << dumped.ToString();
          }
        }
      }
      result.report.outcome = failure;
      result.output = std::move(output);
      return result;
    }

    // Aggregation finalize: reduce every output block's partials in
    // ascending k_origin (deterministic reduction order), in parallel over
    // output blocks, and move the totals into the output matrix.
    Stopwatch agg_clock;
    if (flight != nullptr && needs_agg) {
      flight->Record(obs::FlightEventType::kStageBegin, /*node=*/-1,
                     /*slot=*/-1, 0, 0, "aggregation");
    }
    {
      obs::Tracer::ScopedTrack track(driver_pid, 0);
      obs::TraceSpan agg_span(tracer, "aggregate.finalize", "shuffle");
      if (needs_agg) {
        DISTME_RETURN_NOT_OK(agg_partials.Reduce(
            config_.total_slots(), [&](BlockIndex idx, Block total) {
              return output->Put(idx, std::move(total));
            }));
      } else {
        agg_span.Cancel();
      }
    }
    if (flight != nullptr && needs_agg) {
      flight->Record(obs::FlightEventType::kStageEnd, /*node=*/-1,
                     /*slot=*/-1, 0, 0, "aggregation");
    }
    agg_nanos->Add(static_cast<int64_t>(agg_clock.ElapsedSeconds() * 1e9));

    // Per-link summary gauges, derived from this run's comm-matrix delta.
    if (options.comm != nullptr) {
      const obs::CommMatrixSnapshot comm_delta =
          options.comm->Snapshot().Delta(comm_base);
      metrics->GetGauge("distme.comm.max_link_bytes")
          ->Set(comm_delta.MaxLinkBytes());
      metrics->GetGauge("distme.comm.skew_permille")
          ->Set(static_cast<int64_t>(comm_delta.SkewRatio() * 1000.0));
      metrics->GetGauge("distme.comm.active_links")
          ->Set(comm_delta.ActiveLinks());
    }

    // The report's timings and byte counters are views over the registry —
    // the registry is the source of truth, not hand-threaded accumulators.
    // As with `base`, one snapshot gives a consistent cut for the deltas.
    const obs::MetricsSnapshot final_cut = metrics->Snapshot();
    result.report.outcome = Status::OK();
    result.report.elapsed_seconds = total_clock.ElapsedSeconds();
    result.report.task_retries =
        final_cut.TotalValue("distme.task.retries") - base_retries;
    result.report.steps.repartition_seconds =
        static_cast<double>(
            final_cut.TotalValue("distme.step.repartition_nanos") -
            base_fetch_nanos) *
        1e-9;
    result.report.steps.multiply_seconds =
        static_cast<double>(final_cut.TotalValue("distme.step.multiply_nanos") -
                            base_compute_nanos) *
        1e-9;
    result.report.steps.aggregation_seconds =
        static_cast<double>(
            final_cut.TotalValue("distme.step.aggregation_nanos") -
            base_agg_nanos) *
        1e-9;
    result.report.repartition_bytes = static_cast<double>(
        final_cut.TotalValue("distme.shuffle.repartition_bytes") -
        base_repartition_bytes);
    result.report.aggregation_bytes = static_cast<double>(
        final_cut.TotalValue("distme.shuffle.aggregation_bytes") -
        base_aggregation_bytes);
    result.report.peak_task_memory_bytes = static_cast<double>(
        final_cut.TotalValue("distme.task.peak_memory_bytes"));
    if (config_.has_gpu && mode != ComputeMode::kCpu) {
      double pcie = 0;
      double kernel_busy = 0;
      double device_elapsed = 0;
      int num_devices = 0;
      for (auto& node_devices : devices_) {
        for (auto& device : node_devices) {
          pcie += static_cast<double>(device->stats().h2d_bytes +
                                      device->stats().d2h_bytes);
          kernel_busy += device->stats().kernel_seconds;
          device_elapsed = std::max(device_elapsed, device->Synchronize());
          ++num_devices;
        }
      }
      result.report.pcie_bytes = pcie;
      if (device_elapsed > 0 && num_devices > 0) {
        result.report.gpu_utilization = std::min(
            1.0,
            kernel_busy / (device_elapsed * static_cast<double>(num_devices)));
      }
      metrics->GetGauge("distme.gpu.pcie_bytes")
          ->Set(static_cast<int64_t>(pcie));
      metrics->GetGauge("distme.gpu.utilization_permille")
          ->Set(static_cast<int64_t>(result.report.gpu_utilization * 1000.0));
      if (flight != nullptr) {
        // Overlap gauges from the reconstructed device timelines. The ring
        // may hold earlier runs (and the device virtual clock spans them),
        // so cut to events recorded during this run by sequence number.
        const std::vector<obs::FlightEvent> all_events = flight->Snapshot();
        std::vector<obs::FlightEvent> run_events;
        run_events.reserve(all_events.size());
        for (const obs::FlightEvent& e : all_events) {
          if (e.seq > seq_before_run) run_events.push_back(e);
        }
        const obs::GpuTimelineAnalysis gpu_analysis =
            obs::AnalyzeGpuTimeline(run_events, config_.hw.pcie_bandwidth);
        const obs::OverlapReport& run = gpu_analysis.run;
        metrics->GetGauge("distme.gpu.window_us")->Set(run.window_us());
        metrics->GetGauge("distme.gpu.h2d_busy_us")->Set(run.h2d_busy_us);
        metrics->GetGauge("distme.gpu.d2h_busy_us")->Set(run.d2h_busy_us);
        metrics->GetGauge("distme.gpu.kernel_busy_us")
            ->Set(run.kernel_busy_us);
        metrics->GetGauge("distme.gpu.overlapped_us")->Set(run.overlapped_us);
        metrics->GetGauge("distme.gpu.bubble_us")->Set(run.bubble_us);
        metrics->GetGauge("distme.gpu.overlap_permille")
            ->Set(static_cast<int64_t>(run.overlap_ratio() * 1000.0));
        metrics->GetGauge("distme.gpu.effective_pcie_bytes_per_sec")
            ->Set(static_cast<int64_t>(run.effective_pcie_bytes_per_sec()));
        metrics->GetGauge("distme.gpu.occupancy_high_water_bytes")
            ->Set(gpu_analysis.occupancy_high_water_bytes);
      }
    }
    if (flight != nullptr) {
      flight->Record(obs::FlightEventType::kRunFinish, /*node=*/-1,
                     /*slot=*/-1, static_cast<int64_t>(tasks.size()));
    }
    result.output = std::move(output);
    return result;
  }

 private:
  // Block-level GPU multiply: per-voxel H2D copies, one kernel, no reuse.
  // Wall time spent here accumulates into *gpu_seconds (the task's
  // gpu_wait blocked-time edge).
  Status RunBlockKernel(int node, int64_t task_id, const Block& a_blk,
                        const Block& b_blk, DenseMatrix* acc,
                        double* gpu_seconds) {
    Stopwatch gpu_clock;
    Status st = [&]() -> Status {
      gpu::Device* device = DeviceFor(node, task_id);
      const gpu::StreamId stream = device->CreateStream();
      DISTME_RETURN_NOT_OK(device->EnqueueH2D(stream, a_blk.SizeBytes()));
      DISTME_RETURN_NOT_OK(device->EnqueueH2D(stream, b_blk.SizeBytes()));
      const bool sparse = a_blk.IsSparse() || b_blk.IsSparse();
      const int64_t flops =
          blas::MultiplyFlops(a_blk.rows(), a_blk.cols(), b_blk.cols());
      Status kernel_status = Status::OK();
      DISTME_RETURN_NOT_OK(device->EnqueueKernel(
          stream, flops,
          [&]() {
            kernel_status = blas::MultiplyAccumulate(a_blk, b_blk, acc);
          },
          sparse));
      DISTME_RETURN_NOT_OK(kernel_status);
      return device->EnqueueD2H(stream, acc->SizeBytes());
    }();
    *gpu_seconds += gpu_clock.ElapsedSeconds();
    return st;
  }

  ClusterConfig config_;
  // devices_[node][device_on_node]
  std::vector<std::vector<std::unique_ptr<gpu::Device>>> devices_;
};

RealExecutor::RealExecutor(ClusterConfig config)
    : impl_(std::make_unique<Impl>(std::move(config))) {}

RealExecutor::~RealExecutor() = default;

Result<RealRunResult> RealExecutor::Run(const DistributedMatrix& a,
                                        const DistributedMatrix& b,
                                        const mm::Method& method,
                                        const RealOptions& options) {
  return impl_->Run(a, b, method, options);
}

}  // namespace distme::engine
