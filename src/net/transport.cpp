#include "net/transport.hpp"

namespace emon::net {

void Transport::bind_trace(sim::Trace* trace, std::string series_prefix) {
  trace_ = trace;
  trace_prefix_ = std::move(series_prefix);
  tx_series_ = {};
  rx_series_ = {};
}

void Transport::note_sent(sim::SimTime now, std::size_t bytes) {
  ++tstats_.frames_sent;
  tstats_.bytes_sent += bytes;
  if (trace_ != nullptr) {
    if (!tx_series_) {
      tx_series_ = trace_->series_ref(trace_prefix_ + ".tx_bytes");
    }
    trace_->append(tx_series_, now, static_cast<double>(bytes));
  }
}

void Transport::note_delivered(sim::SimTime now, std::size_t bytes) {
  ++tstats_.frames_delivered;
  tstats_.bytes_delivered += bytes;
  if (trace_ != nullptr) {
    if (!rx_series_) {
      rx_series_ = trace_->series_ref(trace_prefix_ + ".rx_bytes");
    }
    trace_->append(rx_series_, now, static_cast<double>(bytes));
  }
}

}  // namespace emon::net
