// Per-thread scratch arenas for the numerical hot paths.
//
// The EM/DPMM/DRO inner loops used to allocate dozens of short-lived
// std::vector<double> temporaries per evaluation (residuals, triangular-solve
// outputs, log-weight rows). A Workspace keeps a small pool of reusable
// buffers per thread: after warm-up every borrow is a resize within existing
// capacity, so the steady-state hot path performs zero heap allocations.
//
// Ownership rules (see DESIGN.md "Workspaces & kernels"):
//  - Buffers are handed out stack-wise via RAII leases. Leases must be
//    destroyed in reverse order of creation — automatic when each lease is a
//    scoped local, which is the only supported usage pattern.
//  - A lease's buffer contents are unspecified on acquisition (`vec`) unless
//    borrowed through `zeros`.
//  - `take`/`give` serve buffers that must outlive the call that took them
//    (a lease cannot): `take` returns an owned vector, reusing storage an
//    earlier `give` handed back. The fleet's scale work callback takes each
//    device's theta this way, and the shard gives it back once the theta
//    is scored and counted.
//  - Workspaces are NOT thread-safe; `Workspace::local()` hands each thread
//    its own arena, which is what every kernel defaults to. Passing an
//    explicit Workspace& (the *_ws entry points) exists so tests can prove
//    that a reused arena and a fresh one produce bit-identical results.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

namespace drel::util {

class Workspace {
 public:
    Workspace() = default;
    Workspace(const Workspace&) = delete;
    Workspace& operator=(const Workspace&) = delete;

    /// The calling thread's arena. Lives for the thread's lifetime, so pool
    /// capacity persists across calls — the "reuse" in reuse-vs-fresh.
    static Workspace& local();

    /// RAII borrow of one scratch buffer; returns it to the arena on
    /// destruction. Move-only.
    class Lease {
     public:
        Lease(Lease&& other) noexcept : ws_(other.ws_), buf_(other.buf_) {
            other.ws_ = nullptr;
            other.buf_ = nullptr;
        }
        Lease(const Lease&) = delete;
        Lease& operator=(const Lease&) = delete;
        Lease& operator=(Lease&&) = delete;
        ~Lease() {
            if (ws_ != nullptr) ws_->release();
        }

        std::vector<double>& operator*() const noexcept { return *buf_; }
        std::vector<double>* operator->() const noexcept { return buf_; }
        double* data() const noexcept { return buf_->data(); }

     private:
        friend class Workspace;
        Lease(Workspace* ws, std::vector<double>* buf) : ws_(ws), buf_(buf) {}

        Workspace* ws_;
        std::vector<double>* buf_;
    };

    /// Borrows a buffer resized to `n`; contents unspecified.
    Lease vec(std::size_t n);

    /// Borrows a buffer of `n` zeros.
    Lease zeros(std::size_t n);

    /// An owned buffer of `n` doubles, contents unspecified, reusing the
    /// storage of a vector handed back with `give` when one is held.
    std::vector<double> take(std::size_t n);

    /// Holds `v`'s storage for a later `take`. At most kMaxGiven vectors
    /// are held; past that, and for a vector without storage, `v` is
    /// simply freed.
    void give(std::vector<double> v);

    /// Number of live leases (diagnostic; tests assert it returns to 0).
    std::size_t depth() const noexcept { return live_; }

 private:
    /// Vectors `give` holds at most: the scale fleet has one theta out at
    /// a time per shard.
    static constexpr std::size_t kMaxGiven = 4;

    friend class Lease;

    std::vector<double>* acquire(std::size_t n);
    void release() noexcept { --live_; }

    // unique_ptr keeps buffer addresses stable while pool_ itself grows.
    std::vector<std::unique_ptr<std::vector<double>>> pool_;
    std::size_t live_ = 0;
    std::vector<std::vector<double>> given_;
};

}  // namespace drel::util
