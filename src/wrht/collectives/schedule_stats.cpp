#include "wrht/collectives/schedule_stats.hpp"

#include <algorithm>

#include "wrht/common/error.hpp"

namespace wrht::coll {

namespace {

double imbalance(const std::vector<std::uint64_t>& load) {
  std::uint64_t max_load = 0;
  std::uint64_t total = 0;
  for (const auto l : load) {
    max_load = std::max(max_load, l);
    total += l;
  }
  if (total == 0) return 1.0;
  const double mean =
      static_cast<double>(total) / static_cast<double>(load.size());
  return static_cast<double>(max_load) / mean;
}

}  // namespace

double ScheduleStats::tx_imbalance() const { return imbalance(per_node_tx); }
double ScheduleStats::rx_imbalance() const { return imbalance(per_node_rx); }

ScheduleStats analyze(const Schedule& schedule) {
  schedule.validate();
  ScheduleStats stats;
  stats.steps = schedule.num_steps();
  stats.per_node_tx.assign(schedule.num_nodes(), 0);
  stats.per_node_rx.assign(schedule.num_nodes(), 0);

  for (const auto& step : schedule.steps()) {
    stats.max_step_transfers =
        std::max(stats.max_step_transfers, step.transfers.size());
    for (const auto& t : step.transfers) {
      ++stats.transfers;
      stats.total_traffic_elements += t.count;
      stats.per_node_tx[t.src] += t.count;
      stats.per_node_rx[t.dst] += t.count;
      stats.max_transfer_elements =
          std::max(stats.max_transfer_elements, t.count);
    }
  }
  for (const auto tx : stats.per_node_tx) {
    stats.max_node_tx = std::max(stats.max_node_tx, tx);
  }
  for (const auto rx : stats.per_node_rx) {
    stats.max_node_rx = std::max(stats.max_node_rx, rx);
  }
  return stats;
}

}  // namespace wrht::coll
