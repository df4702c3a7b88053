// Bibliography scenario from the introduction: research-paper citation
// connections. The citation subgraph is a DAG, so this example also
// exercises the TSD baseline and cross-checks all engines.
//
//   $ ./examples/citations [num_papers]
#include <cstdio>
#include <cstdlib>

#include "core/graph_matcher.h"
#include "graph/generators.h"

int main(int argc, char** argv) {
  using namespace fgpm;
  uint32_t papers = argc > 1 ? std::atoi(argv[1]) : 1500;

  Graph g = gen::CitationNetwork(papers, /*seed=*/7);
  std::printf("citation network: %zu nodes, %zu edges (DAG: %s)\n",
              g.NumNodes(), g.NumEdges(), IsDag(g) ? "yes" : "no");

  auto matcher = GraphMatcher::Create(&g);
  if (!matcher.ok()) {
    std::fprintf(stderr, "%s\n", matcher.status().ToString().c_str());
    return 1;
  }

  struct Q {
    const char* what;
    const char* pattern;
  };
  const Q queries[] = {
      {"authors of Database papers citing Theory work",
       "Author->Database; Database->Theory"},
      {"venue chains: a venue publication reaching ML and Systems work",
       "Venue->Database; Database->ML; Database->Systems"},
      {"citation collaboration triangle",
       "Author->Database; Author->Theory; Database->Theory"},
  };

  for (const Q& q : queries) {
    std::printf("\n%s\n  pattern: %s\n", q.what, q.pattern);
    auto pattern = Pattern::Parse(q.pattern);
    if (!pattern.ok()) {
      std::fprintf(stderr, "  parse error: %s\n",
                   pattern.status().ToString().c_str());
      return 1;
    }
    size_t expected = 0;
    bool first = true;
    for (Engine e :
         {Engine::kDps, Engine::kDp, Engine::kIntDp, Engine::kTsd}) {
      auto r = (*matcher)->Match(*pattern, {.engine = e});
      if (!r.ok()) {
        std::printf("  %-7s error: %s\n", EngineName(e),
                    r.status().ToString().c_str());
        return 1;
      }
      std::printf("  %-7s %8zu matches in %8.2f ms\n", EngineName(e),
                  r->rows.size(), r->stats.elapsed_ms);
      if (first) {
        expected = r->rows.size();
        first = false;
      } else if (r->rows.size() != expected) {
        std::printf("  ** engines disagree! **\n");
        return 1;
      }
    }
  }
  return 0;
}
