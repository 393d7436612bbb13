// Tan & DeBardeleben's contemporary LANL-style release format ("Failure
// Analysis and Quantification for Contemporary and Future
// Supercomputers", arXiv:1911.02118): pipe-separated interrupt records
// with US-style wall-clock timestamps and an explicit (redundant)
// duration column, as in the contemporary LANL operational releases:
//
//   <system>|<node>|<down MM/DD/YYYY HH:MM:SS>|<up MM/DD/YYYY HH:MM:SS>|
//   <duration seconds>|<Category>|<Subcategory>|<Workload>
//
// e.g.  2|17|06/01/2016 04:10:00|06/01/2016 06:40:00|9000|Hardware|DIMM|Compute
//
// The duration column must agree with up-down (a mismatch is a
// ValidationError — the redundancy is the format's own consistency
// check). Files open with a column-title header line.
#pragma once

#include "trace/adapters/adapter.hpp"

namespace hpcfail::trace::adapters {

class TanAdapter final : public Adapter {
 public:
  std::string_view name() const noexcept override { return "tan"; }
  std::string_view header() const noexcept override {
    return "System|Node|Down Time|Up Time|Duration Sec|Category|"
           "Subcategory|Workload";
  }
  void format_line(const FailureRecord& record,
                   std::string& out) const override;
  FailureRecord parse_line(std::string_view line) const override;
};

}  // namespace hpcfail::trace::adapters
