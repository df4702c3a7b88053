#include "graph/generators.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"

namespace fgpm::gen {
namespace {

// "L<i>", the synthetic generators' label names. Built by appending to
// a named string: GCC 12 at -O3 misreports `"L" + std::to_string(i)`
// as an overlapping copy (-Wrestrict).
std::string SyntheticLabel(uint32_t i) {
  std::string name = "L";
  name += std::to_string(i);
  return name;
}

// Nodes eligible as IDREF targets, collected during document generation.
struct RefPools {
  std::vector<NodeId> categories;
  std::vector<NodeId> items;
  std::vector<NodeId> persons;
  std::vector<NodeId> open_auctions;
};

// Which pool an IDREF leaf points into. Targets are resolved against the
// FULL pools after generation (XMark references are document-order
// independent, so forward references — and thus cycles — must occur).
enum class RefKind { kCategory, kItem, kPerson, kOpenAuction };

using CrossRequest = std::pair<NodeId, RefKind>;

struct XmarkLabels {
  LabelId site, regions, region, item, name, incategory, description, text,
      keyword, bold, emph, categories, category, people, person, profile,
      interest, watch, open_auctions, open_auction, bidder, personref,
      itemref, seller, annotation, closed_auctions, closed_auction, price,
      buyer, quantity, date, parlist, listitem;
};

XmarkLabels InternXmarkLabels(Graph* g) {
  XmarkLabels l;
  l.site = g->InternLabel("site");
  l.regions = g->InternLabel("regions");
  l.region = g->InternLabel("region");
  l.item = g->InternLabel("item");
  l.name = g->InternLabel("name");
  l.incategory = g->InternLabel("incategory");
  l.description = g->InternLabel("description");
  l.text = g->InternLabel("text");
  l.keyword = g->InternLabel("keyword");
  l.bold = g->InternLabel("bold");
  l.emph = g->InternLabel("emph");
  l.categories = g->InternLabel("categories");
  l.category = g->InternLabel("category");
  l.people = g->InternLabel("people");
  l.person = g->InternLabel("person");
  l.profile = g->InternLabel("profile");
  l.interest = g->InternLabel("interest");
  l.watch = g->InternLabel("watch");
  l.open_auctions = g->InternLabel("open_auctions");
  l.open_auction = g->InternLabel("open_auction");
  l.bidder = g->InternLabel("bidder");
  l.personref = g->InternLabel("personref");
  l.itemref = g->InternLabel("itemref");
  l.seller = g->InternLabel("seller");
  l.annotation = g->InternLabel("annotation");
  l.closed_auctions = g->InternLabel("closed_auctions");
  l.closed_auction = g->InternLabel("closed_auction");
  l.price = g->InternLabel("price");
  l.buyer = g->InternLabel("buyer");
  l.quantity = g->InternLabel("quantity");
  l.date = g->InternLabel("date");
  l.parlist = g->InternLabel("parlist");
  l.listitem = g->InternLabel("listitem");
  return l;
}

// Builds ONE auction-site document, like real XMark: a single site root
// with categories/regions/people/auction sections whose entity counts
// scale with the factor. Entities are appended in rounds until the node
// budget is met; the section roots become natural 2-hop hubs, keeping
// the cover ratio |H|/|V| in the paper's band.
class XmarkSiteBuilder {
 public:
  XmarkSiteBuilder(Graph* g, const XmarkLabels& l, Rng* rng, RefPools* pools,
                   std::vector<CrossRequest>* cross_requests)
      : g_(g), l_(l), rng_(rng), pools_(pools), cross_(cross_requests) {}

  // Creates the site skeleton: the root and its six sections.
  void BuildSkeleton() {
    NodeId site = g_->AddNode(l_.site);
    categories_ = Child(site, l_.categories);
    regions_ = Child(site, l_.regions);
    // XMark has six continental regions.
    for (int i = 0; i < 6; ++i) region_nodes_.push_back(Child(regions_, l_.region));
    people_ = Child(site, l_.people);
    open_auctions_ = Child(site, l_.open_auctions);
    closed_auctions_ = Child(site, l_.closed_auctions);
    // Seed categories so early items have IDREF targets.
    for (int i = 0; i < 4; ++i) AddCategory();
  }

  // Adds one round of entities in roughly XMark's entity proportions
  // (items : persons : open auctions : closed auctions : categories
  //  ~ 20 : 25 : 10 : 10 : 1).
  void AddRound() {
    ++round_;
    if (round_ % 5 == 0) AddCategory();
    for (int i = 0; i < 4; ++i) AddItem();
    for (int i = 0; i < 5; ++i) AddPerson();
    for (int i = 0; i < 2; ++i) AddOpenAuction();
    for (int i = 0; i < 2; ++i) AddClosedAuction();
  }

 private:
  NodeId Child(NodeId parent, LabelId label) {
    NodeId v = g_->AddNode(label);
    Status s = g_->AddEdge(parent, v);
    FGPM_CHECK(s.ok());
    return v;
  }

  // description -> parlist -> listitem* -> text -> {bold|keyword|emph}*
  // Like real XMark, text content dominates the node count, which keeps
  // the entity/reference web a small fraction of |V|.
  void BuildDescription(NodeId parent) {
    NodeId d = Child(parent, l_.description);
    NodeId pl = Child(d, l_.parlist);
    int items = static_cast<int>(2 + rng_->NextBounded(3));
    for (int li = 0; li < items; ++li) {
      NodeId item = Child(pl, l_.listitem);
      NodeId t = Child(item, l_.text);
      int extras = static_cast<int>(1 + rng_->NextBounded(3));
      for (int i = 0; i < extras; ++i) {
        switch (rng_->NextBounded(3)) {
          case 0:
            Child(t, l_.bold);
            break;
          case 1:
            Child(t, l_.keyword);
            break;
          default:
            Child(t, l_.emph);
            break;
        }
      }
    }
  }

  void AddCategory() {
    NodeId c = Child(categories_, l_.category);
    pools_->categories.push_back(c);
    Child(c, l_.name);
    BuildDescription(c);
  }

  void AddItem() {
    NodeId region = region_nodes_[rng_->NextBounded(region_nodes_.size())];
    NodeId item = Child(region, l_.item);
    pools_->items.push_back(item);
    Child(item, l_.name);
    Child(item, l_.quantity);
    BuildDescription(item);
    // Category refs are safe fan-out: categories reference nothing, so
    // they never feed the reachability loop.
    int nc = static_cast<int>(1 + rng_->NextBounded(2));
    for (int c = 0; c < nc; ++c) {
      NodeId ref = Child(item, l_.incategory);
      RequestCrossEdge(ref, RefKind::kCategory);
    }
  }

  void AddPerson() {
    NodeId person = Child(people_, l_.person);
    pools_->persons.push_back(person);
    Child(person, l_.name);
    if (rng_->NextBernoulli(0.7)) {
      NodeId profile = Child(person, l_.profile);
      int ni = static_cast<int>(rng_->NextBounded(3));
      for (int i = 0; i < ni; ++i) {
        NodeId ref = Child(profile, l_.interest);
        RequestCrossEdge(ref, RefKind::kCategory);
      }
    }
    // Watches close the person -> auction -> bidder -> person reference
    // loop. The loop's branching factor (watches/person x persons/auction)
    // must stay below 1, or reachable sets percolate across the whole
    // entity web and query results explode combinatorially.
    if (rng_->NextBernoulli(0.35)) {
      NodeId ref = Child(person, l_.watch);
      RequestCrossEdge(ref, RefKind::kOpenAuction);
    }
  }

  void AddOpenAuction() {
    NodeId oa = Child(open_auctions_, l_.open_auction);
    pools_->open_auctions.push_back(oa);
    int nb = static_cast<int>(rng_->NextBounded(3));
    for (int b = 0; b < nb; ++b) {
      NodeId bidder = Child(oa, l_.bidder);
      Child(bidder, l_.date);
      NodeId ref = Child(bidder, l_.personref);
      RequestCrossEdge(ref, RefKind::kPerson);
    }
    NodeId iref = Child(oa, l_.itemref);
    RequestCrossEdge(iref, RefKind::kItem);
    NodeId sref = Child(oa, l_.seller);
    RequestCrossEdge(sref, RefKind::kPerson);
    NodeId ann = Child(oa, l_.annotation);
    BuildDescription(ann);
  }

  void AddClosedAuction() {
    NodeId ca = Child(closed_auctions_, l_.closed_auction);
    Child(ca, l_.price);
    Child(ca, l_.date);
    NodeId iref = Child(ca, l_.itemref);
    RequestCrossEdge(iref, RefKind::kItem);
    NodeId bref = Child(ca, l_.buyer);
    RequestCrossEdge(bref, RefKind::kPerson);
    NodeId sref = Child(ca, l_.seller);
    RequestCrossEdge(sref, RefKind::kPerson);
    NodeId ann = Child(ca, l_.annotation);
    BuildDescription(ann);
  }

  void RequestCrossEdge(NodeId from, RefKind kind) {
    cross_->emplace_back(from, kind);
  }

  Graph* g_;
  const XmarkLabels& l_;
  Rng* rng_;
  RefPools* pools_;
  std::vector<CrossRequest>* cross_;
  NodeId categories_ = kInvalidNode;
  NodeId regions_ = kInvalidNode;
  NodeId people_ = kInvalidNode;
  NodeId open_auctions_ = kInvalidNode;
  NodeId closed_auctions_ = kInvalidNode;
  std::vector<NodeId> region_nodes_;
  uint64_t round_ = 0;
};

}  // namespace

Graph XMarkLike(const XMarkOptions& opts) {
  FGPM_CHECK(opts.factor > 0);
  Graph g;
  XmarkLabels labels = InternXmarkLabels(&g);
  Rng rng(opts.seed);
  RefPools pools;
  std::vector<CrossRequest> cross;

  // Paper's 100M dataset (factor 1.0) has 1,666,315 nodes.
  const uint64_t target_nodes =
      static_cast<uint64_t>(opts.factor * 1'666'315.0);
  XmarkSiteBuilder builder(&g, labels, &rng, &pools, &cross);
  builder.BuildSkeleton();
  while (g.NumNodes() < target_nodes) builder.AddRound();

  // Resolve IDREF targets against the complete pools so references can
  // point forward as well as backward (real XMark has reference cycles).
  for (auto [u, kind] : cross) {
    const std::vector<NodeId>* pool = nullptr;
    switch (kind) {
      case RefKind::kCategory:
        pool = &pools.categories;
        break;
      case RefKind::kItem:
        pool = &pools.items;
        break;
      case RefKind::kPerson:
        pool = &pools.persons;
        break;
      case RefKind::kOpenAuction:
        pool = &pools.open_auctions;
        break;
    }
    if (pool->empty()) continue;
    NodeId v = (*pool)[rng.NextBounded(pool->size())];
    if (opts.acyclic && u > v) std::swap(u, v);
    if (u == v) continue;
    Status s = g.AddEdge(u, v);
    FGPM_CHECK(s.ok());
  }
  g.Finalize();
  return g;
}

Graph ErdosRenyi(uint32_t n, uint64_t m, uint32_t num_labels, uint64_t seed) {
  FGPM_CHECK(n > 0 && num_labels > 0);
  Graph g;
  std::vector<LabelId> labels;
  labels.reserve(num_labels);
  for (uint32_t i = 0; i < num_labels; ++i) {
    labels.push_back(g.InternLabel(SyntheticLabel(i)));
  }
  Rng rng(seed);
  // Zipf-skewed label assignment so extents have realistic size spread.
  ZipfDistribution zipf(num_labels, 0.6);
  for (uint32_t v = 0; v < n; ++v) {
    g.AddNode(labels[zipf.Sample(&rng)]);
  }
  for (uint64_t e = 0; e < m; ++e) {
    NodeId u = static_cast<NodeId>(rng.NextBounded(n));
    NodeId v = static_cast<NodeId>(rng.NextBounded(n));
    if (u == v) continue;
    Status s = g.AddEdge(u, v);
    FGPM_CHECK(s.ok());
  }
  g.Finalize();
  return g;
}

Graph RandomDag(uint32_t n, double avg_out_degree, uint32_t num_labels,
                uint64_t seed) {
  FGPM_CHECK(n > 1 && num_labels > 0);
  Graph g;
  std::vector<LabelId> labels;
  for (uint32_t i = 0; i < num_labels; ++i) {
    labels.push_back(g.InternLabel(SyntheticLabel(i)));
  }
  Rng rng(seed);
  for (uint32_t v = 0; v < n; ++v) {
    g.AddNode(labels[rng.NextBounded(num_labels)]);
  }
  uint64_t m = static_cast<uint64_t>(avg_out_degree * n);
  for (uint64_t e = 0; e < m; ++e) {
    NodeId u = static_cast<NodeId>(rng.NextBounded(n - 1));
    // Strictly forward edge keeps the graph acyclic.
    NodeId v = u + 1 + static_cast<NodeId>(rng.NextBounded(n - 1 - u));
    Status s = g.AddEdge(u, v);
    FGPM_CHECK(s.ok());
  }
  g.Finalize();
  return g;
}

Graph ScaleFree(uint32_t n, uint32_t edges_per_node, uint32_t num_labels,
                uint64_t seed) {
  FGPM_CHECK(n > 2 && num_labels > 0 && edges_per_node > 0);
  Graph g;
  std::vector<LabelId> labels;
  for (uint32_t i = 0; i < num_labels; ++i) {
    labels.push_back(g.InternLabel(SyntheticLabel(i)));
  }
  Rng rng(seed);
  for (uint32_t v = 0; v < n; ++v) {
    g.AddNode(labels[rng.NextBounded(num_labels)]);
  }
  // Preferential attachment via the repeated-endpoints trick: sampling a
  // uniform position in the running endpoint list is proportional to
  // degree.
  std::vector<NodeId> endpoints = {0, 1};
  Status s = g.AddEdge(1, 0);
  FGPM_CHECK(s.ok());
  for (NodeId v = 2; v < n; ++v) {
    for (uint32_t k = 0; k < edges_per_node; ++k) {
      NodeId target = endpoints[rng.NextBounded(endpoints.size())];
      if (target == v) continue;
      s = g.AddEdge(v, target);
      FGPM_CHECK(s.ok());
      endpoints.push_back(target);
    }
    endpoints.push_back(v);
  }
  g.Finalize();
  return g;
}

Graph SupplyChain(uint32_t companies_per_tier, uint64_t seed) {
  FGPM_CHECK(companies_per_tier > 0);
  Graph g;
  LabelId supplier = g.InternLabel("Supplier");
  LabelId manufacturer = g.InternLabel("Manufacturer");
  LabelId wholeseller = g.InternLabel("Wholeseller");
  LabelId retailer = g.InternLabel("Retailer");
  LabelId bank = g.InternLabel("Bank");
  Rng rng(seed);

  const uint32_t n = companies_per_tier;
  std::vector<NodeId> sup, man, who, ret, banks;
  for (uint32_t i = 0; i < n; ++i) sup.push_back(g.AddNode(supplier));
  for (uint32_t i = 0; i < n; ++i) man.push_back(g.AddNode(manufacturer));
  for (uint32_t i = 0; i < n; ++i) who.push_back(g.AddNode(wholeseller));
  for (uint32_t i = 0; i < n; ++i) ret.push_back(g.AddNode(retailer));
  uint32_t nb = std::max<uint32_t>(1, n / 4);
  for (uint32_t i = 0; i < nb; ++i) banks.push_back(g.AddNode(bank));

  auto connect_tiers = [&](const std::vector<NodeId>& from,
                           const std::vector<NodeId>& to, double fanout) {
    for (NodeId u : from) {
      int k = 1 + static_cast<int>(rng.NextBounded(
                  static_cast<uint64_t>(fanout)));
      for (int i = 0; i < k; ++i) {
        NodeId v = to[rng.NextBounded(to.size())];
        Status s = g.AddEdge(u, v);
        FGPM_CHECK(s.ok());
      }
    }
  };
  connect_tiers(sup, man, 3);
  connect_tiers(man, who, 3);
  connect_tiers(who, ret, 4);
  // Some suppliers sell to wholesellers directly (the paper's pattern asks
  // for direct-or-indirect supply).
  connect_tiers(sup, who, 2);
  // Banks serve companies at all tiers.
  for (const auto* tier : {&sup, &man, &who, &ret}) {
    for (NodeId u : *tier) {
      if (rng.NextBernoulli(0.6)) {
        NodeId b = banks[rng.NextBounded(banks.size())];
        Status s = g.AddEdge(b, u);
        FGPM_CHECK(s.ok());
      }
    }
  }
  // Occasional partnership back-edges create cycles (real supply webs are
  // not DAGs).
  for (uint32_t i = 0; i < n / 5 + 1; ++i) {
    NodeId r = ret[rng.NextBounded(ret.size())];
    NodeId s2 = sup[rng.NextBounded(sup.size())];
    Status s = g.AddEdge(r, s2);
    FGPM_CHECK(s.ok());
  }
  g.Finalize();
  return g;
}

Graph CitationNetwork(uint32_t num_papers, uint64_t seed) {
  FGPM_CHECK(num_papers > 1);
  Graph g;
  const char* kAreas[] = {"Database", "Theory", "Systems", "ML", "Graphics"};
  LabelId area_labels[5];
  for (int i = 0; i < 5; ++i) area_labels[i] = g.InternLabel(kAreas[i]);
  LabelId author = g.InternLabel("Author");
  LabelId venue = g.InternLabel("Venue");
  Rng rng(seed);

  // Papers in publication order: id i can only cite j < i (a DAG).
  std::vector<NodeId> papers;
  for (uint32_t i = 0; i < num_papers; ++i) {
    papers.push_back(g.AddNode(area_labels[rng.NextBounded(5)]));
  }
  for (uint32_t i = 1; i < num_papers; ++i) {
    int refs = 1 + static_cast<int>(rng.NextBounded(5));
    for (int r = 0; r < refs; ++r) {
      // Recency bias: prefer recent papers.
      uint32_t span = std::min<uint32_t>(i, 200);
      uint32_t j = i - 1 - static_cast<uint32_t>(rng.NextBounded(span));
      Status s = g.AddEdge(papers[i], papers[j]);
      FGPM_CHECK(s.ok());
    }
  }
  uint32_t num_authors = std::max<uint32_t>(2, num_papers / 3);
  uint32_t num_venues = std::max<uint32_t>(1, num_papers / 50);
  std::vector<NodeId> authors, venues;
  for (uint32_t i = 0; i < num_authors; ++i) authors.push_back(g.AddNode(author));
  for (uint32_t i = 0; i < num_venues; ++i) venues.push_back(g.AddNode(venue));
  for (uint32_t i = 0; i < num_papers; ++i) {
    int na = 1 + static_cast<int>(rng.NextBounded(3));
    for (int a = 0; a < na; ++a) {
      Status s = g.AddEdge(authors[rng.NextBounded(authors.size())], papers[i]);
      FGPM_CHECK(s.ok());
    }
    Status s = g.AddEdge(venues[rng.NextBounded(venues.size())], papers[i]);
    FGPM_CHECK(s.ok());
  }
  g.Finalize();
  return g;
}

Graph SocialNetwork(uint32_t num_accounts, uint64_t seed) {
  FGPM_CHECK(num_accounts >= 10);
  Graph g;
  LabelId influencer = g.InternLabel("Influencer");
  LabelId member = g.InternLabel("Member");
  LabelId community = g.InternLabel("Community");
  LabelId post = g.InternLabel("Post");
  LabelId comment = g.InternLabel("Comment");
  LabelId topic = g.InternLabel("Topic");
  Rng rng(seed);

  auto edge = [&](NodeId u, NodeId v) {
    Status s = g.AddEdge(u, v);
    FGPM_CHECK(s.ok());
  };

  // ~4% of accounts are influencers; everyone else is a member.
  std::vector<NodeId> accounts, influencers;
  uint32_t num_influencers = std::max<uint32_t>(1, num_accounts / 25);
  for (uint32_t i = 0; i < num_influencers; ++i) {
    NodeId a = g.AddNode(influencer);
    accounts.push_back(a);
    influencers.push_back(a);
  }
  for (uint32_t i = num_influencers; i < num_accounts; ++i) {
    accounts.push_back(g.AddNode(member));
  }

  std::vector<NodeId> topics, communities;
  uint32_t num_topics = std::max<uint32_t>(2, num_accounts / 100);
  for (uint32_t i = 0; i < num_topics; ++i) topics.push_back(g.AddNode(topic));
  uint32_t num_communities = std::max<uint32_t>(2, num_accounts / 40);
  for (uint32_t i = 0; i < num_communities; ++i) {
    NodeId c = g.AddNode(community);
    communities.push_back(c);
    edge(c, topics[rng.NextBounded(topics.size())]);
  }

  // Follows: preferential toward influencers; mutual follows create the
  // social cycles the intro alludes to.
  for (NodeId a : accounts) {
    int nf = 1 + static_cast<int>(rng.NextBounded(3));
    for (int f = 0; f < nf; ++f) {
      NodeId target = rng.NextBernoulli(0.5)
                          ? influencers[rng.NextBounded(influencers.size())]
                          : accounts[rng.NextBounded(accounts.size())];
      if (target != a) edge(a, target);
    }
    // Community membership.
    if (rng.NextBernoulli(0.7)) {
      edge(a, communities[rng.NextBounded(communities.size())]);
    }
  }

  // Content: influencers post more; comments reference posts and hang
  // off their authors.
  std::vector<NodeId> posts;
  for (NodeId a : accounts) {
    bool is_influencer = g.label_of(a) == influencer;
    int np = static_cast<int>(rng.NextBounded(is_influencer ? 4 : 2));
    for (int p = 0; p < np; ++p) {
      NodeId pn = g.AddNode(post);
      posts.push_back(pn);
      edge(a, pn);
      edge(pn, topics[rng.NextBounded(topics.size())]);
    }
  }
  for (NodeId a : accounts) {
    if (posts.empty()) break;
    int nc = static_cast<int>(rng.NextBounded(2));
    for (int c = 0; c < nc; ++c) {
      NodeId cn = g.AddNode(comment);
      edge(a, cn);
      edge(cn, posts[rng.NextBounded(posts.size())]);
    }
  }
  g.Finalize();
  return g;
}

}  // namespace fgpm::gen
