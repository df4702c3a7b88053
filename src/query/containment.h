// Pattern canonicalization: the key of the plan cache, the result cache
// and MatchBatch's dedup.
//
// Canonical form: pattern nodes are *labels* (unique within a pattern),
// so a pattern's identity is fully determined by its label set and its
// edge set — only the text spelling (statement order, chain grouping,
// whitespace) and the parse-order node numbering vary between
// equivalent spellings. CanonicalForm renumbers nodes in sorted-label
// order and sorts the edge list, producing a key string under which
// every spelling of the same pattern collides.
#ifndef FGPM_QUERY_CONTAINMENT_H_
#define FGPM_QUERY_CONTAINMENT_H_

#include <string>
#include <vector>

#include "query/pattern.h"

namespace fgpm {

struct CanonicalForm {
  // "A->B;A->C" over the canonical numbering; single-label patterns
  // canonicalize to the bare label. Equal keys <=> equivalent edge sets
  // (NOT closure-equivalence; "A->B;B->C;A->C" and "A->B;B->C" keep
  // distinct keys).
  std::string key;
  // The pattern renumbered: node i carries the i-th label in sorted
  // order, edges sorted by (from, to).
  Pattern pattern;
  // node_map[orig node id] = canonical node id.
  std::vector<PatternNodeId> node_map;
  // edge_map[orig edge index] = canonical edge index.
  std::vector<uint32_t> edge_map;

  // Inverses (canonical -> original), for translating cached plans back
  // into a caller pattern's coordinates.
  std::vector<PatternNodeId> InverseNodeMap() const;
  std::vector<uint32_t> InverseEdgeMap() const;
};

CanonicalForm Canonicalize(const Pattern& p);

}  // namespace fgpm

#endif  // FGPM_QUERY_CONTAINMENT_H_
