#include "wal/wal_writer.h"

#include <unistd.h>

#include <chrono>
#include <thread>
#include <utility>

#include "wal/wal_format.h"

namespace upi::wal {

namespace {

/// Simulated log device extent size (storage/log_file.h).
constexpr uint64_t kExtentBytes = 4ull << 20;

/// kGroup only: a leader that would sync a batch of ONE record first waits
/// this long (wall time) for concurrent committers to append and join the
/// batch. Without the window, closed-loop clients that wake together after a
/// sync elect the first re-arrival as a lone leader every round, capping the
/// mean group size near 3 regardless of client count; with it, the whole
/// cohort shares one rotation.
constexpr std::chrono::microseconds kGroupWindow{200};

}  // namespace

WalWriter::WalWriter(WalWriterOptions options, Lsn next_lsn)
    : options_(std::move(options)),
      mode_(options_.mode),
      next_lsn_(next_lsn),
      durable_lsn_(next_lsn - 1) {}

Result<std::unique_ptr<WalWriter>> WalWriter::Open(storage::DbEnv* env,
                                                   WalWriterOptions options,
                                                   uint64_t valid_bytes,
                                                   Lsn next_lsn) {
  auto writer =
      std::unique_ptr<WalWriter>(new WalWriter(std::move(options), next_lsn));
  const std::string& path = writer->options_.path;
  if (valid_bytes == 0) {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) {
      return Status::IOError("wal: cannot create '" + path + "'");
    }
    std::string header = LogHeader();
    if (std::fwrite(header.data(), 1, header.size(), f) != header.size() ||
        std::fflush(f) != 0) {
      std::fclose(f);
      return Status::IOError("wal: cannot write the header of '" + path + "'");
    }
    writer->file_ = f;
    writer->durable_bytes_.store(header.size(), std::memory_order_release);
  } else {
    // Drop the torn tail (if any) so the append position equals the end of
    // the validated prefix, then append from there.
    if (::truncate(path.c_str(), static_cast<off_t>(valid_bytes)) != 0) {
      return Status::IOError("wal: cannot truncate '" + path + "'");
    }
    std::FILE* f = std::fopen(path.c_str(), "ab");
    if (f == nullptr) {
      return Status::IOError("wal: cannot open '" + path + "'");
    }
    writer->file_ = f;
    writer->durable_bytes_.store(valid_bytes, std::memory_order_release);
  }

  UPI_ASSIGN_OR_RETURN(
      writer->log_device_,
      env->TryCreateLogFile(path, kExtentBytes, writer->durable_bytes()));
  writer->log_device_->ChargeOpen();

  obs::MetricsRegistry* metrics = env->metrics();
  writer->m_appends_ = metrics->counter("upi_wal_appends_total");
  writer->m_bytes_ = metrics->counter("upi_wal_bytes_total");
  writer->m_syncs_ = metrics->counter("upi_wal_syncs_total");
  writer->m_checkpoints_ = metrics->counter("upi_wal_checkpoints_total");
  writer->m_group_size_ = metrics->histogram("upi_wal_group_size");
  return writer;
}

WalWriter::~WalWriter() {
  Sync();
  if (file_ != nullptr) std::fclose(file_);
}

void WalWriter::WriteDurable(const std::string& frames,
                             uint64_t batch_records) {
  if (!frames.empty()) {
    std::fwrite(frames.data(), 1, frames.size(), file_);
    std::fflush(file_);
    log_device_->Append(frames.size());
    durable_bytes_.fetch_add(frames.size(), std::memory_order_release);
  }
  log_device_->CommitBarrier();
  m_syncs_->Add();
  m_group_size_->Record(static_cast<double>(batch_records));
}

Lsn WalWriter::Append(std::string frame) {
  SealFrame(&frame);
  m_appends_->Add();
  m_bytes_->Add(frame.size());
  bytes_since_checkpoint_.fetch_add(frame.size(), std::memory_order_relaxed);

  if (mode_ == WalMode::kGroup) {
    std::lock_guard<sync::Mutex> tail(tail_mu_);
    Lsn lsn = next_lsn_++;
    if (pending_.empty()) {
      pending_ = std::move(frame);
    } else {
      pending_ += frame;
    }
    return lsn;
  }

  // kCommit: synchronous durable append, serialized on the sync lock (the
  // caller's shared gate hold ranks below it).
  std::lock_guard<sync::Mutex> sync(sync_mu_);
  Lsn lsn;
  {
    std::lock_guard<sync::Mutex> tail(tail_mu_);
    lsn = next_lsn_++;
  }
  WriteDurable(frame, 1);
  {
    std::lock_guard<sync::Mutex> tail(tail_mu_);
    durable_lsn_ = lsn;
  }
  return lsn;
}

void WalWriter::Commit(Lsn lsn) {
  if (mode_ == WalMode::kCommit) return;  // durable since Append
  {
    std::unique_lock<sync::Mutex> tail(tail_mu_);
    if (durable_lsn_ >= lsn) return;  // absorbed by an earlier sync
    if (sync_in_flight_ && syncing_lsn_ >= lsn) {
      // Follower: the in-flight batch covers this record — park until the
      // leader publishes the new durable watermark. The tail latch is the
      // only lock held (the gate was released before Commit), which the
      // UPI_SYNC_CHECKS condvar validation enforces.
      durable_cv_.wait(tail, [this, lsn] { return durable_lsn_ >= lsn; });
      return;
    }
  }
  // Leader: either no sync is running, or the running one won't cover this
  // record — queue behind it on the sync lock and sync the next batch.
  std::lock_guard<sync::Mutex> sync(sync_mu_);
  std::string batch;
  Lsn batch_max;
  uint64_t batch_records;
  {
    std::unique_lock<sync::Mutex> tail(tail_mu_);
    if (durable_lsn_ >= lsn) return;  // the previous leader covered us
    if (next_lsn_ - 1 - durable_lsn_ <= 1) {
      // Lone leader: hold the batch open one window so committers racing
      // toward Append() share this rotation instead of queueing for their
      // own. Only the tail latch is dropped — holding sync_mu_ keeps the
      // sync order — and the wait is bounded, never re-armed.
      tail.unlock();
      std::this_thread::sleep_for(kGroupWindow);
      tail.lock();
    }
    batch.swap(pending_);
    batch_max = next_lsn_ - 1;
    batch_records = batch_max - durable_lsn_;
    sync_in_flight_ = true;
    syncing_lsn_ = batch_max;
  }
  // ONE device sync for the whole batch, no tail latch held: appenders keep
  // filling the other buffer while the platter turns.
  WriteDurable(batch, batch_records);
  {
    std::lock_guard<sync::Mutex> tail(tail_mu_);
    durable_lsn_ = batch_max;
    sync_in_flight_ = false;
  }
  durable_cv_.notify_all();
}

void WalWriter::Sync() {
  // Unlike Commit(), never parks: waiting for an in-flight leader happens
  // on the sync mutex, so Sync() is legal while holding the gate exclusive
  // (the checkpoint path).
  std::lock_guard<sync::Mutex> sync(sync_mu_);
  std::string batch;
  Lsn batch_max;
  uint64_t batch_records;
  {
    std::lock_guard<sync::Mutex> tail(tail_mu_);
    if (pending_.empty()) return;  // holding sync_mu_: nothing in flight
    batch.swap(pending_);
    batch_max = next_lsn_ - 1;
    batch_records = batch_max - durable_lsn_;
    sync_in_flight_ = true;
    syncing_lsn_ = batch_max;
  }
  WriteDurable(batch, batch_records);
  {
    std::lock_guard<sync::Mutex> tail(tail_mu_);
    durable_lsn_ = batch_max;
    sync_in_flight_ = false;
  }
  durable_cv_.notify_all();
}

Status WalWriter::Rotate(
    const std::function<Status(const SnapshotSink& sink)>& write) {
  // Caller holds the gate exclusive (no appenders) and has Sync()ed (no
  // pending frames, no in-flight leader).
  const std::string tmp = options_.path + ".tmp";
  std::FILE* tf = std::fopen(tmp.c_str(), "wb");
  if (tf == nullptr) return Status::IOError("wal: cannot create '" + tmp + "'");
  uint64_t bytes = 0;
  auto put = [&](std::string_view data) {
    if (std::fwrite(data.data(), 1, data.size(), tf) != data.size()) {
      return Status::IOError("wal: cannot write '" + tmp + "'");
    }
    bytes += data.size();
    return Status::OK();
  };
  Status s = put(LogHeader());
  if (s.ok()) {
    s = write([&put](std::string frame) {
      SealFrame(&frame);
      return put(frame);
    });
  }
  if (s.ok() && std::fflush(tf) != 0) {
    s = Status::IOError("wal: cannot flush '" + tmp + "'");
  }
  if (std::fclose(tf) != 0 && s.ok()) {
    s = Status::IOError("wal: cannot close '" + tmp + "'");
  }
  if (s.ok() && std::rename(tmp.c_str(), options_.path.c_str()) != 0) {
    s = Status::IOError("wal: cannot rename '" + tmp + "'");
  }
  if (!s.ok()) {
    // The live log was never touched: it still replays.
    std::remove(tmp.c_str());
    return s;
  }
  std::FILE* f = std::fopen(options_.path.c_str(), "ab");
  if (f == nullptr) {
    return Status::IOError("wal: cannot reopen '" + options_.path + "'");
  }
  // Every record in the old file was flushed by its sync, and the rename
  // has replaced it.
  std::fclose(file_);
  file_ = f;

  durable_bytes_.store(bytes, std::memory_order_release);
  bytes_since_checkpoint_.store(0, std::memory_order_relaxed);
  // The snapshot is one long sequential append on the log device, plus the
  // barrier that makes the rename durable.
  log_device_->Append(bytes);
  log_device_->CommitBarrier();
  m_checkpoints_->Add();
  return Status::OK();
}

Lsn WalWriter::last_assigned_lsn() const {
  std::lock_guard<sync::Mutex> tail(tail_mu_);
  return next_lsn_ - 1;
}

Lsn WalWriter::durable_lsn() const {
  std::lock_guard<sync::Mutex> tail(tail_mu_);
  return durable_lsn_;
}

}  // namespace upi::wal
