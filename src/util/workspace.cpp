#include "util/workspace.hpp"

#include <utility>

namespace drel::util {

Workspace& Workspace::local() {
    static thread_local Workspace ws;
    return ws;
}

std::vector<double>* Workspace::acquire(std::size_t n) {
    if (live_ == pool_.size()) pool_.push_back(std::make_unique<std::vector<double>>());
    std::vector<double>* buf = pool_[live_].get();
    ++live_;
    buf->resize(n);
    return buf;
}

Workspace::Lease Workspace::vec(std::size_t n) { return Lease(this, acquire(n)); }

Workspace::Lease Workspace::zeros(std::size_t n) {
    Lease lease(this, acquire(n));
    lease->assign(n, 0.0);
    return lease;
}

std::vector<double> Workspace::take(std::size_t n) {
    std::vector<double> out;
    if (!given_.empty()) {
        out = std::move(given_.back());
        given_.pop_back();
    }
    out.resize(n);
    return out;
}

void Workspace::give(std::vector<double> v) {
    if (v.capacity() == 0 || given_.size() == kMaxGiven) return;
    if (given_.capacity() == 0) given_.reserve(kMaxGiven);
    given_.push_back(std::move(v));
}

}  // namespace drel::util
