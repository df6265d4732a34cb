#include "proto/session.h"

#include "obs/span.h"
#include "proto/fault.h"
#include "proto/journal.h"

namespace lppa::proto {

RecoverableWireResult run_recoverable_wire_auction(
    const core::LppaConfig& config, core::TrustedThirdParty& ttp,
    const std::vector<auction::SuLocation>& locations,
    const std::vector<auction::BidVector>& bids, MessageBus& bus,
    std::uint64_t seed, const RecoverableSessionConfig& recov,
    CrashInjector* crashes, const std::vector<std::size_t>& exclude) {
  const std::vector<bool> participating =
      participation_mask(bids.size(), exclude);
  const Address auctioneer = Address::auctioneer();
  const Address ttp_addr = Address::ttp();
  obs::Span round_span(config.metrics, "wire.round");

  // SU endpoints survive auctioneer crashes: they send once, before any
  // attempt, and afterwards only answer nacks with the same bytes.
  const std::vector<SuEnvelopes> sus = mask_submissions(
      config, ttp.su_keys(), locations, bids, seed, participating);
  for (const SuEnvelopes& su : sus) {
    bus.send(Address::su(su.su), auctioneer, su.location);
    bus.send(Address::su(su.su), auctioneer, su.bid);
  }

  // Durable state: what a crash cannot erase.
  RecoverableWireResult result;
  RoundJournal journal;
  TtpService service(ttp);
  std::size_t ticks = 0;
  const auto advance = [&](std::size_t t) {
    bus.advance(t);
    ticks += t;
  };

  for (;;) {
    try {
      RoundDriver driver(config, bids.size(), recov, participating, seed,
                         journal, result.report, crashes, config.metrics,
                         &round_span);
      driver.start();
      for (;;) {
        while (auto message = bus.receive(auctioneer)) {
          driver.on_submission(*message);
        }
        if (!driver.admission_open()) break;
        const std::size_t wait = driver.backoff_ticks();
        for (const RoundDriver::Nack& nack : driver.wave(ticks)) {
          bus.send(auctioneer, Address::su(nack.su),
                   Bytes(nack.envelope.begin(), nack.envelope.end()));
        }
        if (!driver.admission_open()) break;
        advance(wait);

        // SU endpoints answer nacks with their cached bytes.  A damaged
        // nack still triggers a full resend — over-answering is safe,
        // under-answering would stall the round.
        for (const SuEnvelopes& su : sus) {
          while (auto message = bus.receive(Address::su(su.su))) {
            std::uint8_t mask =
                RetransmitRequest::kLocation | RetransmitRequest::kBid;
            try {
              const Envelope e = Envelope::deserialize(*message);
              if (e.type != MessageType::kRetransmitRequest) continue;
              mask = RetransmitRequest::deserialize(e.payload).mask;
            } catch (const LppaError&) {
            }
            if (mask & RetransmitRequest::kLocation) {
              bus.send(Address::su(su.su), auctioneer, su.location);
            }
            if (mask & RetransmitRequest::kBid) {
              bus.send(Address::su(su.su), auctioneer, su.bid);
            }
          }
        }
        advance(wait);
      }

      // Charging: the TTP is trusted but the link to it is not, so each
      // attempt re-sends the whole query set (results are idempotent).
      for (std::vector<Bytes> queries = driver.charge_queries();
           !queries.empty(); queries = driver.charge_queries()) {
        for (const Bytes& query : queries) bus.send(auctioneer, ttp_addr, query);
        advance(recov.hardened.backoff_base_ticks);
        while (auto message = bus.receive(ttp_addr)) {
          try {
            bus.send(ttp_addr, auctioneer, service.handle(*message));
          } catch (const LppaError&) {
            driver.note_rejected();  // damaged query; the resend covers it
          }
        }
        advance(recov.hardened.backoff_base_ticks);
        while (auto message = bus.receive(auctioneer)) {
          driver.on_charge_result(*message);
        }
      }

      result.announcement = driver.publish();
      break;
    } catch (const CrashSignal&) {
      // The auctioneer died: its driver is gone, the journal and the bus
      // (the outside world) survive.  Restarting costs ticks, which is
      // how crashes erode the deadline.
      ticks += recov.recovery_cost_ticks;
    }
  }

  const Envelope e = Envelope::deserialize(result.announcement);
  result.awards = WinnerAnnouncement::deserialize(e.payload).awards;
  result.journal = journal.data();
  result.report.ticks_used = ticks;
  if (const FaultInjector* injector = bus.fault_injector()) {
    result.report.faults = injector->counters();
  }
  return result;
}

}  // namespace lppa::proto
