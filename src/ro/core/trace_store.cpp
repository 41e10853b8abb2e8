#include "ro/core/trace_store.h"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "ro/core/trace_codec.h"
#include "ro/util/vec_pool.h"

namespace ro {
namespace {

[[noreturn]] void io_fail(const char* what) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "%s: %s (errno %d)", what,
                std::strerror(errno), errno);
  check_fail("io", __FILE__, __LINE__, buf);
}

/// pwrite the whole range, looping on short writes and EINTR.
void pwrite_full(int fd, const void* buf, uint64_t n, uint64_t off) {
  const char* p = static_cast<const char*>(buf);
  uint64_t done = 0;
  while (done < n) {
    const ssize_t w =
        ::pwrite(fd, p + done, n - done, static_cast<off_t>(off + done));
    if (w < 0) {
      if (errno == EINTR) continue;
      io_fail("trace spill write failed");
    }
    if (w == 0) io_fail("trace spill write made no progress");
    done += static_cast<uint64_t>(w);
  }
}

/// pread the whole range, looping on short reads and EINTR.
void pread_full(int fd, void* buf, uint64_t n, uint64_t off) {
  char* p = static_cast<char*>(buf);
  uint64_t done = 0;
  while (done < n) {
    const ssize_t r =
        ::pread(fd, p + done, n - done, static_cast<off_t>(off + done));
    if (r < 0) {
      if (errno == EINTR) continue;
      io_fail("trace spill read failed");
    }
    if (r == 0) io_fail("trace spill read hit EOF");
    done += static_cast<uint64_t>(r);
  }
}

}  // namespace

TraceStore::TraceStore(Options opt)
    : opt_(opt), open_(VecPool<Access>::take()),
      open_limit_(opt.segment_tasks) {
  RO_CHECK_MSG(opt_.segment_tasks >= 1, "segment capacity must be >= 1");
}

TraceStore::~TraceStore() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    sealed_.store(true, std::memory_order_release);
    cv_.notify_all();
  }
  if (spill_worker_.joinable()) spill_worker_.join();
  if (fd_ >= 0) ::close(fd_);
  VecPool<Access>::give(std::move(open_));
}

TraceStore::SlabPtr TraceStore::make_slab(std::vector<Access> recs) const {
  const uint64_t bytes = recs.size() * sizeof(Access);
  auto sh = shared_;
  const uint64_t now = sh->resident_bytes.fetch_add(bytes) + bytes;
  uint64_t peak = sh->peak_resident_bytes.load();
  while (now > peak &&
         !sh->peak_resident_bytes.compare_exchange_weak(peak, now)) {
  }
  auto* v = new std::vector<Access>(std::move(recs));
  return SlabPtr(v, [sh, bytes](const std::vector<Access>* p) {
    sh->resident_bytes.fetch_sub(bytes);
    auto* buf = const_cast<std::vector<Access>*>(p);
    VecPool<Access>::give(std::move(*buf));
    delete buf;
  });
}

void TraceStore::append_slow(const Access& a) {
  RO_CHECK_MSG(!sealed_.load(std::memory_order_relaxed),
               "TraceStore::append after seal()");
  if (open_limit_ == 0) {  // first record after a segment seal
    open_ = VecPool<Access>::take();
    open_.reserve(opt_.segment_tasks);
    open_limit_ = opt_.segment_tasks;
  }
  open_.push_back(a);
  records_.store(records_.load(std::memory_order_relaxed) + 1,
                 std::memory_order_release);
  if (open_.size() == opt_.segment_tasks) {
    std::lock_guard<std::mutex> lk(mu_);
    seal_open_locked();
    open_limit_ = 0;
  }
}

void TraceStore::seal() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (sealed_.load(std::memory_order_relaxed)) return;
    seal_open_locked();
    open_limit_ = 0;  // any later append() takes the checked slow path
    sealed_.store(true, std::memory_order_release);
    cv_.notify_all();
  }
  // The async worker drains every remaining sealed segment, then exits.
  if (spill_worker_.joinable()) spill_worker_.join();
  if (opt_.async_spill) {
    // The last seals may have landed after the worker's final eviction.
    std::lock_guard<std::mutex> lk(mu_);
    evict_excess_locked();
  }
}

void TraceStore::seal_open_locked() {
  if (open_.empty()) return;
  const uint64_t seg = entries_.size();
  entries_.emplace_back();
  entries_[seg].count = open_.size();
  insert_resident_locked(seg, make_slab(std::move(open_)));
  open_.clear();
  if (opt_.async_spill && !spill_worker_.joinable()) {
    spill_worker_ = std::thread([this] { spill_worker_main(); });
  }
  // The watermark moved: wake readers blocked on this segment and the
  // spill worker.
  cv_.notify_all();
}

void TraceStore::insert_resident_locked(uint64_t seg, SlabPtr p) {
  Entry& e = entries_[seg];
  e.pinned = p;
  e.resident = std::move(p);
  window_.push_back(seg);
  evict_excess_locked();
}

void TraceStore::evict_excess_locked() {
  if (opt_.max_resident_segments == 0) return;
  while (window_.size() > opt_.max_resident_segments) {
    const uint64_t seg = window_.front();
    if (!entries_[seg].spilled) {
      if (opt_.async_spill && !worker_done_) {
        // Write-behind: the worker spills in seal order and evicts as it
        // goes; the window may transiently overshoot until it catches up.
        // Spilling here would race the worker's own pass over this seg.
        break;
      }
      const SlabPtr slab = entries_[seg].resident;
      RO_CHECK(slab != nullptr);
      write_segment_locked(seg, *slab, nullptr);
    }
    window_.erase(window_.begin());
    // The strong ref is dropped, but a cursor pin may keep the buffer
    // alive; `pinned` lets segment() revive it without touching disk.
    entries_[seg].resident.reset();
  }
}

void TraceStore::ensure_file_locked() {
  if (fd_ >= 0) return;
  std::string dir = opt_.spill_dir;
  if (dir.empty()) {
    const char* t = std::getenv("TMPDIR");
    dir = (t != nullptr && *t != '\0') ? t : "/tmp";
  }
  std::string path = dir + "/ro_trace_XXXXXX";
  fd_ = ::mkstemp(path.data());
  if (fd_ < 0) io_fail("cannot create trace spill file");
  ::unlink(path.c_str());  // anonymous: the bytes vanish with the fd
}

void TraceStore::write_segment_locked(uint64_t seg,
                                      const std::vector<Access>& recs,
                                      std::unique_lock<std::mutex>* io_lk) {
  const auto unlocked = [io_lk](auto&& io) {
    if (io_lk != nullptr) io_lk->unlock();
    io();
    if (io_lk != nullptr) io_lk->lock();
  };
  ensure_file_locked();
  const uint64_t raw = recs.size() * sizeof(Access);
  std::vector<uint8_t> enc;
  const uint8_t* src = reinterpret_cast<const uint8_t*>(recs.data());
  uint64_t nbytes = raw;
  if (opt_.compress) {
    unlocked([&] { encode_accesses(recs.data(), recs.size(), enc); });
    src = enc.data();
    nbytes = enc.size();
  }
  const uint64_t off = file_end_;
  file_end_ += nbytes;
  unlocked([&] { pwrite_full(fd_, src, nbytes, off); });
  // entries_ may have grown (and reallocated) while unlocked.
  Entry& e = entries_[seg];
  e.file_off = off;
  e.file_bytes = nbytes;
  e.spilled = true;
  spilled_bytes_ += raw;
  compressed_bytes_ += nbytes;
}

void TraceStore::spill_worker_main() {
  std::unique_lock<std::mutex> lk(mu_);
  uint64_t next = 0;
  while (true) {
    cv_.wait(lk, [&] {
      return next < entries_.size() ||
             sealed_.load(std::memory_order_acquire);
    });
    if (next >= entries_.size()) {
      worker_done_ = true;  // sealed and fully drained
      break;
    }
    const uint64_t seg = next++;
    const SlabPtr slab = entries_[seg].resident;
    RO_CHECK_MSG(slab != nullptr && !entries_[seg].spilled,
                 "async spill raced segment eviction");
    // Codec work and the write run outside the lock, so the recorder's
    // next seal (and pipelined readers) never wait on them.
    write_segment_locked(seg, *slab, &lk);
    evict_excess_locked();
  }
}

TraceStore::SlabPtr TraceStore::load_segment_locked(uint64_t seg) {
  Entry& e = entries_[seg];
  RO_CHECK_MSG(e.spilled && fd_ >= 0, "evicted trace segment was not spilled");
  std::vector<Access> recs = VecPool<Access>::take();
  recs.resize(e.count);
  if (opt_.compress) {
    std::vector<uint8_t> enc(e.file_bytes);
    pread_full(fd_, enc.data(), e.file_bytes, e.file_off);
    decode_accesses(enc.data(), enc.size(), recs.data(), recs.size());
  } else {
    pread_full(fd_, recs.data(), e.file_bytes, e.file_off);
  }
  ++segment_loads_;
  SlabPtr p = make_slab(std::move(recs));
  insert_resident_locked(seg, p);
  return p;
}

TraceStore::SlabPtr TraceStore::segment(uint64_t seg) {
  std::unique_lock<std::mutex> lk(mu_);
  // The pipelining handoff: block until the recorder seals this segment
  // (sealed segments are immutable) or seals the store.
  cv_.wait(lk, [&] {
    return seg < entries_.size() || sealed_.load(std::memory_order_acquire);
  });
  RO_CHECK_MSG(seg < entries_.size(), "trace segment out of range");
  Entry& e = entries_[seg];
  if (e.resident != nullptr) {
    // Window hit: refresh LRU position.
    auto it = std::find(window_.begin(), window_.end(), seg);
    window_.erase(it);
    window_.push_back(seg);
    return e.resident;
  }
  if (SlabPtr p = e.pinned.lock()) {
    // Evicted but still pinned by some cursor: revive without disk IO.
    insert_resident_locked(seg, p);
    return p;
  }
  return load_segment_locked(seg);
}

const Access& TraceStore::Cursor::fault(uint64_t i) {
  RO_CHECK_MSG(store_ != nullptr, "read through an empty trace cursor");
  const uint64_t cap = store_->opt_.segment_tasks;
  const uint64_t seg = i / cap;
  pin_ = store_->segment(seg);  // may block on the seal watermark
  recs_ = pin_->data();
  first_ = seg * cap;
  count_ = pin_->size();
  RO_CHECK_MSG(i - first_ < count_, "trace cursor out of range");
  return recs_[i - first_];
}

uint64_t TraceStore::segment_count() const {
  std::lock_guard<std::mutex> lk(mu_);
  return entries_.size() + (open_.empty() ? 0 : 1);
}

uint64_t TraceStore::sealed_segment_count() const {
  std::lock_guard<std::mutex> lk(mu_);
  return entries_.size();
}

TraceStore::Stats TraceStore::stats() const {
  // Byte counters are exact once sealed; mid-record they lag the
  // recorder by at most the open segment (which only its thread sees).
  std::lock_guard<std::mutex> lk(mu_);
  Stats s;
  s.segments = entries_.size() + (open_.empty() ? 0 : 1);
  s.sealed_segments = entries_.size();
  s.records = records_.load(std::memory_order_acquire);
  s.spilled_bytes = spilled_bytes_;
  s.compressed_bytes = compressed_bytes_;
  s.segment_loads = segment_loads_;
  s.resident_bytes =
      shared_->resident_bytes.load() + open_.size() * sizeof(Access);
  s.peak_resident_bytes =
      std::max(shared_->peak_resident_bytes.load(), s.resident_bytes);
  return s;
}

}  // namespace ro
