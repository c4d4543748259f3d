// RUBBoS servlet catalog.
//
// RUBBoS (the paper's benchmark) exposes 24 servlet interactions modelled on
// Slashdot. Each servlet puts a different CPU demand on the web/app/DB tiers
// and issues a different number of DB queries. The paper uses the
// CPU-intensive browse-only mix; browse_only_mix() reproduces that: only the
// read-only interactions carry weight, and the catalog is normalised so the
// *weighted mean* per-tier demand scale is 1.0 and the weighted mean query
// count equals the configured visit ratio (V_db = 2 by default, matching the
// paper's Sec. III-A example).
#pragma once

#include <string>
#include <vector>

#include "common/rng.h"

namespace dcm::workload {

struct Servlet {
  std::string name;
  double weight = 0.0;      // probability mass in the mix (0 = excluded)
  double web_scale = 1.0;   // demand multiplier at the web tier
  double app_scale = 1.0;   // demand multiplier at the app tier
  double db_scale = 1.0;    // demand multiplier per DB query
  int db_queries = 2;       // queries issued by the app tier
};

class ServletCatalog {
 public:
  explicit ServletCatalog(std::vector<Servlet> servlets);

  /// The paper's CPU-intensive browse-only RUBBoS mix (24 interactions, the
  /// 9 read-only ones weighted). `mean_db_queries` sets the normalised
  /// weighted-average visit ratio to the DB tier.
  static ServletCatalog browse_only_mix(double mean_db_queries = 2.0);

  size_t size() const { return servlets_.size(); }
  const Servlet& servlet(size_t index) const { return servlets_[index]; }

  /// Weighted draw of a servlet index.
  size_t sample(Rng& rng) const;

  /// Weighted mean of db_queries across the mix.
  double mean_db_queries() const;
  /// Weighted mean demand scale for a tier (0=web, 1=app, 2=db).
  double mean_scale(int tier) const;

 private:
  std::vector<Servlet> servlets_;
  std::vector<double> cumulative_;  // cumulative weights for sampling
  double total_weight_ = 0.0;
};

}  // namespace dcm::workload
