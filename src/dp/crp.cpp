#include "dp/crp.hpp"

#include <algorithm>

namespace drel::dp {

std::size_t count_clusters(const std::vector<std::size_t>& assignments) {
    if (assignments.empty()) return 0;
    return *std::max_element(assignments.begin(), assignments.end()) + 1;
}

}  // namespace drel::dp
