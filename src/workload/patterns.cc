#include "workload/patterns.h"

#include <algorithm>

#include "common/logging.h"

namespace fgpm::workload {
namespace {

Pattern MustParse(const char* text) {
  Result<Pattern> p = Pattern::Parse(text);
  FGPM_CHECK(p.ok());
  return *std::move(p);
}

}  // namespace

std::vector<Pattern> XmarkPathPatterns() {
  return {
      // 3-node paths (P1-P3).
      MustParse("site->region->item"),
      MustParse("site->person->watch"),
      MustParse("regions->item->incategory"),
      // 4-node paths (P4-P6).
      MustParse("site->region->item->incategory"),
      MustParse("site->people->person->interest"),
      MustParse("site->open_auction->bidder->personref"),
      // 5-node paths (P7-P9).
      MustParse("site->regions->region->item->incategory"),
      MustParse("site->people->person->profile->interest"),
      MustParse("site->open_auctions->open_auction->bidder->personref"),
  };
}

std::vector<Pattern> XmarkTreePatterns() {
  return {
      // 3-node trees (T1-T3).
      MustParse("item->name; item->incategory"),
      MustParse("person->name; person->watch"),
      MustParse("open_auction->bidder; open_auction->itemref"),
      // 4-node trees (T4-T6).
      MustParse("region->item; item->name; item->incategory"),
      MustParse("person->profile; profile->interest; person->watch"),
      MustParse("open_auction->bidder; bidder->personref; open_auction->seller"),
      // 5-node trees (T7-T9).
      MustParse("site->region; region->item; item->name; item->incategory"),
      MustParse("site->person; person->profile; profile->interest; person->watch"),
      MustParse(
          "site->open_auction; open_auction->bidder; bidder->personref; "
          "open_auction->annotation"),
  };
}

std::vector<Pattern> XmarkGraphPatterns4() {
  // Non-tree shapes (Figure 4(e)/(d) with |Vq| = 4): the join-back edge
  // runs through the selective ID/IDREF web (watch/bidder/itemref/
  // interest chains), so R-semijoins genuinely prune — the situation the
  // paper's DPS exploits.
  return {
      MustParse("person->watch; watch->open_auction; "
                "open_auction->itemref; person->itemref"),
      MustParse("open_auction->bidder; bidder->personref; "
                "personref->person; open_auction->person"),
      MustParse("item->incategory; incategory->category; item->category; "
                "category->name"),
      MustParse("open_auction->itemref; itemref->item; item->incategory; "
                "open_auction->incategory"),
      MustParse("person->watch; person->interest; watch->open_auction; "
                "open_auction->interest"),
  };
}

std::vector<Pattern> XmarkGraphPatterns5() {
  // |Vq| = 5 shapes of Figure 4(h)/(i): reference-web chains with a
  // selective join-back edge.
  return {
      MustParse("person->watch; watch->open_auction; "
                "open_auction->itemref; itemref->item; person->item"),
      MustParse("open_auction->bidder; bidder->personref; "
                "personref->person; person->interest; "
                "open_auction->interest"),
      MustParse("person->open_auction; open_auction->item; "
                "item->incategory; incategory->category; person->category"),
      MustParse("site->open_auction; open_auction->bidder; "
                "bidder->personref; personref->person; open_auction->person"),
      MustParse("person->watch; watch->open_auction; open_auction->seller; "
                "seller->name; person->seller"),
  };
}

Pattern GenericPath(int k) {
  FGPM_CHECK(k >= 2);
  Pattern p;
  PatternNodeId prev = p.AddNode("L0");
  for (int i = 1; i < k; ++i) {
    std::string label = "L";  // appended: see gen::SyntheticLabel
    label += std::to_string(i);
    PatternNodeId cur = p.AddNode(label);
    Status s = p.AddEdge(prev, cur);
    FGPM_CHECK(s.ok());
    prev = cur;
  }
  return p;
}

std::vector<Pattern> RandomPatterns(const Graph& g, int count, int nodes,
                                    int extra_edges, uint64_t seed) {
  FGPM_CHECK(nodes >= 2);
  Rng rng(seed);
  std::vector<LabelId> labels;
  for (LabelId l = 0; l < g.NumLabels(); ++l) {
    if (!g.Extent(l).empty()) labels.push_back(l);
  }
  FGPM_CHECK(static_cast<int>(labels.size()) >= nodes);

  std::vector<Pattern> out;
  int attempts = 0;
  while (static_cast<int>(out.size()) < count && attempts < count * 50) {
    ++attempts;
    std::vector<LabelId> chosen = labels;
    rng.Shuffle(&chosen);
    chosen.resize(nodes);
    Pattern p;
    for (LabelId l : chosen) p.AddNode(g.LabelName(l));
    // Random spanning tree first (connectivity), then extra edges.
    bool ok = true;
    for (int i = 1; i < nodes && ok; ++i) {
      int j = static_cast<int>(rng.NextBounded(i));
      bool forward = rng.NextBernoulli(0.5);
      Status s = forward ? p.AddEdge(j, i) : p.AddEdge(i, j);
      ok = s.ok();
    }
    for (int e = 0; e < extra_edges && ok; ++e) {
      uint32_t a = static_cast<uint32_t>(rng.NextBounded(nodes));
      uint32_t b = static_cast<uint32_t>(rng.NextBounded(nodes));
      if (a == b) continue;
      Status s = p.AddEdge(a, b);
      if (s.code() == StatusCode::kAlreadyExists) continue;
      ok = s.ok();
    }
    if (ok && p.Validate().ok()) out.push_back(std::move(p));
  }
  return out;
}

}  // namespace fgpm::workload
