#include "workload/servlet.h"

#include <cmath>

#include "common/check.h"

namespace dcm::workload {

ServletCatalog::ServletCatalog(std::vector<Servlet> servlets) : servlets_(std::move(servlets)) {
  DCM_CHECK_MSG(!servlets_.empty(), "catalog needs servlets");
  cumulative_.reserve(servlets_.size());
  for (const auto& s : servlets_) {
    DCM_CHECK(s.weight >= 0.0);
    DCM_CHECK(s.db_queries >= 0);
    // Construction-time sum over a fixed-order vector; never updated again.
    total_weight_ += s.weight;  // dcm-lint: allow(no-unanchored-float-accumulate)
    cumulative_.push_back(total_weight_);
  }
  DCM_CHECK_MSG(total_weight_ > 0.0, "mix has no weighted servlet");
}

ServletCatalog ServletCatalog::browse_only_mix(double mean_db_queries) {
  DCM_CHECK(mean_db_queries > 0.0);
  // The 24 RUBBoS interactions. Weights follow the browse-only transition
  // mix (read-only pages only); relative demand scales reflect page
  // complexity (story pages join comments; searches scan; category listings
  // are cheap). Write interactions are present with weight 0 so per-servlet
  // accounting paths cover the whole catalog.
  std::vector<Servlet> s{
      // name                     weight  web    app    db    queries
      {"StoriesOfTheDay",         0.220,  1.00,  0.90,  0.80, 2},
      {"OlderStories",            0.080,  1.00,  0.95,  0.90, 2},
      {"BrowseCategories",        0.100,  0.80,  0.60,  0.50, 1},
      {"BrowseStoriesByCategory", 0.120,  0.90,  0.85,  0.80, 2},
      {"ViewStory",               0.250,  1.10,  1.20,  1.20, 2},
      {"ViewComment",             0.120,  1.00,  1.10,  1.10, 3},
      {"SearchInStories",         0.060,  1.20,  1.40,  1.80, 2},
      {"SearchInComments",        0.030,  1.20,  1.50,  2.00, 3},
      {"SearchInUsers",           0.020,  1.00,  1.10,  1.30, 1},
      // Write path — weight 0 in the browse-only mix.
      {"AboutMe",                 0.0,    1.00,  1.20,  1.20, 3},
      {"SubmitStory",             0.0,    1.00,  1.10,  1.00, 1},
      {"StoreStory",              0.0,    1.00,  1.30,  1.50, 2},
      {"ReviewStories",           0.0,    1.00,  1.20,  1.40, 2},
      {"AcceptStory",             0.0,    1.00,  1.10,  1.20, 2},
      {"RejectStory",             0.0,    1.00,  1.00,  1.00, 1},
      {"ModerateComment",         0.0,    1.00,  1.10,  1.10, 2},
      {"StoreModeratorLog",       0.0,    1.00,  1.00,  1.20, 1},
      {"PostComment",             0.0,    1.00,  1.20,  1.10, 2},
      {"StoreComment",            0.0,    1.00,  1.30,  1.40, 2},
      {"RegisterUser",            0.0,    0.90,  1.00,  1.00, 1},
      {"StoreRegisterUser",       0.0,    0.90,  1.10,  1.20, 2},
      {"Author",                  0.0,    1.00,  1.00,  1.00, 1},
      {"BrowseRegions",           0.0,    0.80,  0.60,  0.50, 1},
      {"ViewUserInfo",            0.0,    1.00,  1.00,  1.10, 2},
  };

  // Normalise the weighted means so the tier configs' S0 values are the
  // true mean demands and the mean query count hits the requested V_db.
  double w = 0.0, web = 0.0, app = 0.0, db_q = 0.0, db_work = 0.0;
  for (const auto& e : s) {
    w += e.weight;
    web += e.weight * e.web_scale;
    app += e.weight * e.app_scale;
    db_q += e.weight * e.db_queries;
    db_work += e.weight * e.db_scale * e.db_queries;
  }
  const double web_mean = web / w;
  const double app_mean = app / w;
  const double q_mean = db_q / w;
  const double db_scale_mean = db_work / db_q;  // per-query mean scale
  const double q_adjust = mean_db_queries / q_mean;

  for (auto& e : s) {
    e.web_scale /= web_mean;
    e.app_scale /= app_mean;
    e.db_scale /= db_scale_mean;
    e.db_queries = std::max(
        0, static_cast<int>(std::lround(static_cast<double>(e.db_queries) * q_adjust)));
  }
  return ServletCatalog(std::move(s));
}

size_t ServletCatalog::sample(Rng& rng) const {
  const double draw = rng.uniform(0.0, total_weight_);
  for (size_t i = 0; i < cumulative_.size(); ++i) {
    if (draw < cumulative_[i]) return i;
  }
  return cumulative_.size() - 1;
}

double ServletCatalog::mean_db_queries() const {
  double q = 0.0;
  for (const auto& s : servlets_) q += s.weight * s.db_queries;
  return q / total_weight_;
}

double ServletCatalog::mean_scale(int tier) const {
  DCM_CHECK(tier >= 0 && tier <= 2);
  double total = 0.0;
  for (const auto& s : servlets_) {
    const double scale = tier == 0 ? s.web_scale : tier == 1 ? s.app_scale : s.db_scale;
    total += s.weight * scale;
  }
  return total / total_weight_;
}

}  // namespace dcm::workload
