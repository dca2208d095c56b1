#include "hdlsim/sim_counters.hpp"

#include <string>

#include "obs/registry.hpp"

namespace scflow::hdlsim {

void SimCounters::record_into(scflow::obs::Registry& reg, std::string_view prefix) const {
  const std::string p = std::string(prefix) + ".";
  reg.set_counter(p + "evaluations", evaluations);
  reg.set_counter(p + "dirty_pushes", dirty_pushes);
  reg.set_counter(p + "settle_calls", settle_calls);
  reg.set_counter(p + "settle_passes", settle_passes);
  reg.set_counter(p + "ram_rereads", ram_rereads);
  reg.set_counter(p + "peak_queue_depth", peak_queue_depth);
  reg.set_counter(p + "steady_state_allocs", steady_state_allocs);
}

}  // namespace scflow::hdlsim
