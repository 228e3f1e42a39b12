// A "database environment": one simulated disk plus one buffer pool shared by
// all files of a database, mirroring a BerkeleyDB environment. Owns the page
// files it creates until DropFile releases one (its pool frames and its page
// images go, each image once its last reader lets go; its device addresses
// are never reused) or the environment is destroyed.
#pragma once

#include <algorithm>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/check.h"
#include "common/status.h"
#include "obs/metrics.h"
#include "sim/sim_disk.h"
#include "storage/buffer_pool.h"
#include "storage/log_file.h"
#include "storage/page_file.h"
#include "storage/pager.h"
#include "sync/sync.h"

namespace upi::storage {

class DbEnv {
 public:
  /// `pool_bytes` defaults to 32 MiB — deliberately smaller than the bench
  /// datasets so that maintenance workloads show the eviction-driven random
  /// writes the paper measures (Table 7), while single queries still keep
  /// their working set resident as on the paper's machine. The disk
  /// impersonates `profile` (sim/device_profile.h; default: the paper's
  /// spinning disk); planner and merge policy built on this environment price
  /// against the same profile via profile().
  explicit DbEnv(
      uint64_t pool_bytes = 32ull << 20,
      sim::DeviceProfile profile = sim::DeviceProfile::SpinningDisk())
      : disk_(profile), pool_(pool_bytes) {
    // Export the counters disk and pool already maintain for themselves as
    // snapshot-time hooks — zero hot-path cost, no double accounting. The
    // hook captures `this`; registry and subjects share this DbEnv's
    // lifetime.
    registry_.AddSnapshotHook(
        [this](obs::MetricsSnapshot* snap) { ExportStorageMetrics(snap); });
  }

  /// Creates a new page file on this environment's disk. Thread-safe:
  /// background maintenance workers create fracture files while other
  /// threads query. File names are unique per environment: a name in use
  /// returns AlreadyExists (it would shadow live data otherwise). Files of
  /// a table are created through NewFiles, which drops them again if the
  /// build that created them fails.
  Result<PageFile*> CreateFile(const std::string& name, uint32_t page_size) {
    std::lock_guard<sync::Mutex> lock(files_mu_);
    if (!file_names_.insert(name).second) {
      return Status::AlreadyExists("file '" + name +
                                   "' already exists in this environment");
    }
    files_.push_back(std::make_unique<PageFile>(&disk_, name, page_size));
    return files_.back().get();
  }

  /// Creates a sequential append-only log device region (the WAL's charging
  /// model; see storage/log_file.h). Shares the page-file namespace so a log
  /// can never shadow a table file. `preexisting_bytes` re-seeds the region
  /// for a log that already exists on the host (recovery).
  Result<LogFile*> TryCreateLogFile(const std::string& name,
                                    uint64_t extent_bytes,
                                    uint64_t preexisting_bytes) {
    std::lock_guard<sync::Mutex> lock(files_mu_);
    if (!file_names_.insert(name).second) {
      return Status::AlreadyExists("file '" + name +
                                   "' already exists in this environment");
    }
    log_files_.push_back(std::make_unique<LogFile>(
        &disk_, name, extent_bytes, preexisting_bytes));
    return log_files_.back().get();
  }

  /// Releases a written-back file this environment created: discards every
  /// pool frame of it (BufferPool::DiscardFile: in-flight I/O is waited out,
  /// a pinned or dirty frame aborts), then destroys the PageFile, with its
  /// references to the page images, and frees its name. The caller
  /// guarantees no other thread can still reach the file; a cursor that
  /// kept a page image may still read it.
  void DropFile(PageFile* file) {
    pool_.DiscardFile(file);
    std::unique_ptr<PageFile> dropped;
    {
      std::lock_guard<sync::Mutex> lock(files_mu_);
      auto it = std::find_if(files_.begin(), files_.end(),
                             [file](const std::unique_ptr<PageFile>& f) {
                               return f.get() == file;
                             });
      UPI_CHECK(it != files_.end(), "DropFile of a file this env does not own");
      file_names_.erase(file->name());
      dropped = std::move(*it);
      files_.erase(it);
    }
    // `dropped` releases the page images outside the file-table lock.
  }

  Pager MakePager(PageFile* file) { return Pager(&pool_, file); }

  /// The cold-cache protocol from Section 7.1 ("performed with a cold
  /// database and buffer cache"): flush + drop every cached page, forget
  /// the head position, and close every file handle, so the next
  /// PageFile::OpenIfClosed() of each file pays Costinit again.
  void ColdCache() {
    pool_.DropAll();
    disk_.ResetHead();
    disk_.CloseFiles();
  }

  sim::SimDisk* disk() { return &disk_; }
  const sim::SimDisk* disk() const { return &disk_; }
  BufferPool* pool() { return &pool_; }
  obs::MetricsRegistry* metrics() const { return &registry_; }
  const sim::CostParams& params() const { return disk_.params(); }
  const sim::DeviceProfile& profile() const { return disk_.profile(); }

  /// Total footprint of all files (the paper's "DB size").
  uint64_t TotalFileBytes() const {
    std::lock_guard<sync::Mutex> lock(files_mu_);
    uint64_t total = 0;
    for (const auto& f : files_) total += f->size_bytes();
    return total;
  }

 private:
  void ExportStorageMetrics(obs::MetricsSnapshot* snap) const {
    const sim::DiskStats d = disk_.stats();
    auto counter = [snap](const char* name, double v) {
      snap->counters.push_back({name, "", v});
    };
    counter("upi_disk_reads_total", static_cast<double>(d.reads));
    counter("upi_disk_writes_total", static_cast<double>(d.writes));
    counter("upi_disk_seeks_total", static_cast<double>(d.seeks));
    counter("upi_disk_seek_ms_total", d.seek_ms);
    counter("upi_disk_bytes_read_total", static_cast<double>(d.bytes_read));
    counter("upi_disk_bytes_written_total",
            static_cast<double>(d.bytes_written));
    counter("upi_disk_file_opens_total", static_cast<double>(d.file_opens));
    counter("upi_disk_sim_ms_total", d.SimMs(disk_.params()));
    // Device-profile families: all-zero on the spinning-disk profile, live on
    // flash (GC surcharge, queue-overlap savings, depth distribution).
    counter("upi_device_gc_ms_total", d.gc_ms);
    counter("upi_device_gc_erases_total", static_cast<double>(d.gc_erases));
    counter("upi_device_overlapped_io_total",
            static_cast<double>(d.overlapped_ios));
    counter("upi_device_overlap_saved_ms_total", d.overlap_saved_ms);
    auto depth_hist = disk_.QueueDepthHistogram();
    for (size_t depth = 1; depth < depth_hist.size(); ++depth) {
      if (depth_hist[depth] == 0) continue;
      snap->counters.push_back({"upi_device_queue_depth_total",
                                "depth=\"" + std::to_string(depth) + "\"",
                                static_cast<double>(depth_hist[depth])});
    }
    for (size_t i = 0; i < pool_.num_shards(); ++i) {
      BufferPool::PoolCounters c = pool_.shard_counters(i);
      std::string label = "shard=\"" + std::to_string(i) + "\"";
      auto sharded = [snap, &label](const char* name, uint64_t v) {
        snap->counters.push_back({name, label, static_cast<double>(v)});
      };
      sharded("upi_bufferpool_hits_total", c.hits);
      sharded("upi_bufferpool_misses_total", c.misses);
      sharded("upi_bufferpool_evictions_total", c.evictions);
      sharded("upi_bufferpool_writebacks_total", c.writebacks);
    }
    snap->gauges.push_back({"upi_bufferpool_cached_bytes", "",
                            static_cast<double>(pool_.cached_bytes())});
    // Frames holding a private copy of their page: the RAM the pool adds to
    // the device's images. Walks the shards here, off the hot path.
    snap->gauges.push_back({"upi_bufferpool_private_bytes", "",
                            static_cast<double>(pool_.private_bytes())});
    snap->gauges.push_back({"upi_storage_file_bytes", "",
                            static_cast<double>(TotalFileBytes())});
  }

  // Declared first so every other member (whose instrumentation holds
  // pointers into the registry) is destroyed before it.
  mutable obs::MetricsRegistry registry_;
  sim::SimDisk disk_;
  // Declared before pool_ so the pool (whose destructor flushes dirty pages
  // back to these files) is destroyed first.
  mutable sync::Mutex files_mu_{sync::LockRank::kDbEnvFiles};
  std::vector<std::unique_ptr<PageFile>> files_;
  std::vector<std::unique_ptr<LogFile>> log_files_;
  std::unordered_set<std::string> file_names_;
  BufferPool pool_;
};

/// The files one build creates, and the one way a table's files come into
/// being: every bulk build, merge and flush creates its files through one.
/// Unless the build calls Keep, the destructor drops them again, so a failed
/// build leaves no file behind and a retry under the same name succeeds.
/// A build that writes through the pool checks its whole input and creates
/// all of its files before its first pool write. Should it still fail after
/// one, the file's dirty frames are written back before the drop, as
/// DbEnv::DropFile requires.
class NewFiles {
 public:
  explicit NewFiles(DbEnv* env) : env_(env) {}
  NewFiles(const NewFiles&) = delete;
  NewFiles& operator=(const NewFiles&) = delete;
  ~NewFiles() {
    for (PageFile* file : files_) {
      env_->pool()->FlushFile(file);
      env_->DropFile(file);
    }
  }

  /// DbEnv::CreateFile, remembered for the drop.
  Result<PageFile*> Create(const std::string& name, uint32_t page_size) {
    Result<PageFile*> file = env_->CreateFile(name, page_size);
    if (file.ok()) files_.push_back(file.value());
    return file;
  }
  /// The build is finished: its files stay.
  void Keep() { files_.clear(); }

 private:
  DbEnv* env_;
  std::vector<PageFile*> files_;
};

}  // namespace upi::storage
