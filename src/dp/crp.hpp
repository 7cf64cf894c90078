// Chinese Restaurant Process — the partition view of the Dirichlet process.
//
// The collapsed Gibbs samplers in dpmm_gibbs.cpp and dpmm_nig.cpp are CRP
// samplers with likelihood terms; this header holds the partition helper
// they share.
#pragma once

#include <cstddef>
#include <vector>

namespace drel::dp {

/// Number of occupied clusters in an assignment vector.
std::size_t count_clusters(const std::vector<std::size_t>& assignments);

}  // namespace drel::dp
