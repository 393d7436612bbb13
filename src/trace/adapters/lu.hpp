// Lu's commodity-cluster failure-log format (Lu, "Failure Data Analysis
// of HPC Systems", arXiv:1302.4779): syslog-style single-line node-down
// events from 8-24-month commodity-cluster logs. One space-separated
// line per failure:
//
//   <epoch> c<system>n<node> NODE_FAIL <downtime>s <workload> <CAT>/<sub>
//
// e.g.  1275350400 c1n42 NODE_FAIL 5400s comp HW/mem
//
// <epoch> is the failure start in Unix seconds, <downtime> the repair
// time in whole seconds, <CAT> one of HW/SW/NET/ENV/HUM/UNK and <sub> the
// detailed-cause token (mem, cpu, ic, psu, disk, hw, os, pfs, sched, sw,
// switch, nic, outage, ac, oper, unk). Files open with a "#" banner line.
#pragma once

#include "trace/adapters/adapter.hpp"

namespace hpcfail::trace::adapters {

class LuAdapter final : public Adapter {
 public:
  std::string_view name() const noexcept override { return "lu"; }
  std::string_view header() const noexcept override {
    return "# lu commodity-cluster node failure log v1";
  }
  void format_line(const FailureRecord& record,
                   std::string& out) const override;
  FailureRecord parse_line(std::string_view line) const override;
};

}  // namespace hpcfail::trace::adapters
