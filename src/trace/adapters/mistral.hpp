// Mistral job-history row format (Zasadzinski et al., "Early Termination
// of Failed HPC Jobs Through Machine Learning" / Mistral supercomputer
// job-history analysis, arXiv:1801.07624): one CSV row per failed job
// with ISO-8601 'T' timestamps and a slurm-flavoured vocabulary:
//
//   job_id,host,begin,end,state,reason,partition
//   j2-17,m2n17,2017-06-01T04:10:00,2017-06-01T06:40:00,FAILED_HW,dimm,compute
//
// `job_id` is derived from the host ("j<system>-<node>") and must agree
// with it (a mismatch is a ValidationError). `state` carries the failure
// category (FAILED_HW/SW/NET/ENV/OP/UNK), `reason` the detailed cause,
// and `partition` (compute/visual/login) the workload class. Files open
// with the column-name CSV header.
#pragma once

#include "trace/adapters/adapter.hpp"

namespace hpcfail::trace::adapters {

class MistralAdapter final : public Adapter {
 public:
  std::string_view name() const noexcept override { return "mistral"; }
  std::string_view header() const noexcept override {
    return "job_id,host,begin,end,state,reason,partition";
  }
  void format_line(const FailureRecord& record,
                   std::string& out) const override;
  FailureRecord parse_line(std::string_view line) const override;
};

}  // namespace hpcfail::trace::adapters
