#ifndef CASPER_SCENARIOS_STACK_H_
#define CASPER_SCENARIOS_STACK_H_

#include <memory>
#include <string>
#include <vector>

#include "src/casper/casper.h"
#include "src/transport/fault_injection.h"
#include "src/transport/listener.h"
#include "src/transport/socket_channel.h"

/// \file
/// Stack configurations a scenario can run against. A scenario is a
/// workload, not a deployment: the same tick loop must drive the
/// in-process facade, a real-socket two-tier split, or an external
/// server unchanged. ScenarioStack owns whatever the chosen
/// configuration needs (listener, fault injectors) and exposes the one
/// CasperService the engine talks to, plus target provisioning that
/// reaches the backend the wire traffic actually lands on (the facade's
/// SetPublicTargets writes to its in-process server, which a decorated
/// channel bypasses).

namespace casper::scenarios {

enum class StackKind {
  kFacade,   ///< Classic in-process three-tier service.
  kSocket,   ///< Server tier behind an in-process SocketListener (UDS).
  kConnect,  ///< External server reached over --connect=ADDR.
};

const char* StackKindName(StackKind kind);

struct StackOptions {
  StackKind kind = StackKind::kFacade;
  std::string connect;        ///< kConnect only: `unix:/path` or host:port.
  anonymizer::PyramidConfig pyramid;
  size_t idempotency_window = 8192;

  /// Chaos faults injected into the tier channel. Zero rates = no
  /// injection.
  transport::FaultProfile chaos;
  uint64_t chaos_seed = 0xC4A05;

  /// Instrument bundle threaded into the service (null = process
  /// default). Scenario runs inject a fresh bundle so the report's
  /// metrics snapshot covers exactly one run.
  obs::CasperMetrics* metrics = nullptr;
};

/// One assembled deployment. Everything is torn down in reverse order
/// by the destructor; the service must not be used after that.
class ScenarioStack {
 public:
  static Result<std::unique_ptr<ScenarioStack>> Create(
      const StackOptions& options);
  ~ScenarioStack();

  ScenarioStack(const ScenarioStack&) = delete;
  ScenarioStack& operator=(const ScenarioStack&) = delete;

  CasperService& service() { return *service_; }

  /// Install public targets on the backend the service's wire traffic
  /// reaches (in-process server or socket-side server). For kConnect the remote side must have been provisioned
  /// with the same (count, seed) via `casper_cli serve --targets=N
  /// --targets-seed=S`; this call only records the local oracle copy.
  void ProvisionTargets(const std::vector<processor::PublicTarget>& targets);

  /// The provisioned target list — the oracle's ground truth.
  const std::vector<processor::PublicTarget>& targets() const {
    return targets_;
  }

  StackKind kind() const { return options_.kind; }
  const StackOptions& options() const { return options_; }


 private:
  explicit ScenarioStack(const StackOptions& options) : options_(options) {}

  StackOptions options_;
  std::vector<processor::PublicTarget> targets_;

  // kSocket backend: a QueryServer behind an in-process UDS listener.
  std::unique_ptr<server::QueryServer> socket_server_;
  std::unique_ptr<transport::ServerEndpoint> socket_endpoint_;
  std::unique_ptr<transport::SocketListener> listener_;
  std::string socket_address_;

  std::unique_ptr<CasperService> service_;
};

}  // namespace casper::scenarios

#endif  // CASPER_SCENARIOS_STACK_H_
