#include "sched/scheduled_dag.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "util/error.h"

namespace actg::sched {

ScheduledDag ScheduledDag::Compile(const ctg::Ctg& graph,
                                   std::span<const ExtraEdge> control,
                                   std::span<const ExtraEdge> pseudo) {
  const std::size_t n = graph.task_count();
  const std::size_t m = graph.edge_count() + control.size() + pseudo.size();
  ACTG_CHECK(n + 1 + 2 * m <= UINT32_MAX,
             "scheduled DAG exceeds 32-bit ids");
  std::shared_ptr<std::uint32_t[]> words =
      std::make_shared<std::uint32_t[]>(n + 1 + 2 * m + n);
  std::uint32_t* const first = words.get();
  std::uint32_t* const target = first + n + 1;
  std::uint32_t* const edge = target + m;
  std::uint32_t* const order = edge + m;

  // CSR rows by counting sort; filling CTG edges by id, then control,
  // then pseudo edges gives each row that order.
  for (EdgeId eid : graph.EdgeIds()) ++first[graph.edge(eid).src.index() + 1];
  for (const auto* extra : {&control, &pseudo}) {
    for (const ExtraEdge& e : *extra) ++first[e.src.index() + 1];
  }
  for (std::size_t u = 0; u < n; ++u) first[u + 1] += first[u];
  std::vector<std::uint32_t> scratch(first, first + n);
  const auto add = [&](TaskId src, TaskId dst, EdgeId eid) {
    const std::uint32_t arc = scratch[src.index()]++;
    target[arc] = static_cast<std::uint32_t>(dst.value);
    edge[arc] = static_cast<std::uint32_t>(eid.value);
  };
  for (EdgeId eid : graph.EdgeIds()) {
    const ctg::Edge& e = graph.edge(eid);
    add(e.src, e.dst, eid);
  }
  for (const auto* extra : {&control, &pseudo}) {
    for (const ExtraEdge& e : *extra) add(e.src, e.dst, EdgeId{});
  }

  // Kahn order, with the order array itself as the queue.
  std::fill(scratch.begin(), scratch.end(), 0);
  for (std::size_t arc = 0; arc < m; ++arc) ++scratch[target[arc]];
  std::size_t tail = 0;
  for (std::size_t u = 0; u < n; ++u) {
    if (scratch[u] == 0) order[tail++] = static_cast<std::uint32_t>(u);
  }
  const std::size_t sources = tail;
  for (std::size_t head = 0; head < tail; ++head) {
    const std::uint32_t u = order[head];
    for (std::uint32_t arc = first[u]; arc < first[u + 1]; ++arc) {
      if (--scratch[target[arc]] == 0) order[tail++] = target[arc];
    }
  }
  ACTG_ASSERT(tail == n, "scheduled DAG contains a cycle");

  ScheduledDag dag;
  dag.words_ = std::move(words);
  dag.tasks_ = static_cast<std::uint32_t>(n);
  dag.arcs_ = static_cast<std::uint32_t>(m);
  dag.sources_ = static_cast<std::uint32_t>(sources);
  return dag;
}

}  // namespace actg::sched
