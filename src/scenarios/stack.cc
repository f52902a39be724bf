#include "src/scenarios/stack.h"

#include <unistd.h>

#include <atomic>
#include <utility>

namespace casper::scenarios {
namespace {

/// The chaos wrapper does not own its inner channel; a Composite parks
/// both on the object the resilient client holds (same idiom as the
/// CLI's --connect + chaos path).
struct CompositeChannel : transport::Channel {
  std::unique_ptr<transport::Channel> inner;
  std::unique_ptr<transport::FaultInjectingChannel> outer;
  Result<std::string> Call(std::string_view request,
                           const transport::CallContext& context) override {
    return outer->Call(request, context);
  }
};

std::unique_ptr<transport::Channel> MaybeWrapChaos(
    std::unique_ptr<transport::Channel> inner,
    const transport::FaultProfile& profile, uint64_t seed) {
  if (profile.CombinedRate() <= 0.0) return inner;
  auto composite = std::make_unique<CompositeChannel>();
  composite->outer = std::make_unique<transport::FaultInjectingChannel>(
      inner.get(), profile, seed);
  composite->inner = std::move(inner);
  return composite;
}

std::string UniqueSocketAddress() {
  static std::atomic<uint64_t> counter{0};
  return "unix:/tmp/casper_scenario_" + std::to_string(getpid()) + "_" +
         std::to_string(counter.fetch_add(1)) + ".sock";
}

}  // namespace

const char* StackKindName(StackKind kind) {
  switch (kind) {
    case StackKind::kFacade:
      return "facade";
    case StackKind::kSocket:
      return "socket";
    case StackKind::kConnect:
      return "connect";
  }
  return "unknown";
}

Result<std::unique_ptr<ScenarioStack>> ScenarioStack::Create(
    const StackOptions& options) {
  std::unique_ptr<ScenarioStack> stack(new ScenarioStack(options));

  CasperOptions service_options;
  service_options.pyramid = options.pyramid;
  service_options.server_idempotency_window = options.idempotency_window;
  service_options.metrics = options.metrics;
  const transport::FaultProfile chaos = options.chaos;
  const uint64_t chaos_seed = options.chaos_seed;

  switch (options.kind) {
    case StackKind::kFacade: {
      if (chaos.CombinedRate() > 0.0) {
        service_options.channel_decorator =
            [chaos, chaos_seed](transport::Channel* inner)
            -> std::unique_ptr<transport::Channel> {
          return std::make_unique<transport::FaultInjectingChannel>(
              inner, chaos, chaos_seed);
        };
      }
      break;
    }
    case StackKind::kSocket: {
      server::QueryServerOptions server_options;
      server_options.density_extent = options.pyramid.space;
      server_options.idempotency_window = options.idempotency_window;
      server_options.metrics = options.metrics;
      stack->socket_server_ =
          std::make_unique<server::QueryServer>(server_options);
      stack->socket_endpoint_ = std::make_unique<transport::ServerEndpoint>(
          stack->socket_server_.get());
      stack->socket_address_ = UniqueSocketAddress();
      transport::ServerEndpoint* endpoint = stack->socket_endpoint_.get();
      auto listener = transport::SocketListener::Start(
          stack->socket_address_,
          transport::SerializedHandler(
              [endpoint](std::string_view request,
                         const transport::CallContext& context) {
                return endpoint->Handle(request, context);
              }),
          transport::ListenerOptions{});
      if (!listener.ok()) return listener.status();
      stack->listener_ = std::move(listener).value();
      const std::string address = stack->socket_address_;
      service_options.channel_decorator =
          [address, chaos, chaos_seed](transport::Channel*)
          -> std::unique_ptr<transport::Channel> {
        transport::SocketChannelOptions socket_options;
        socket_options.connect_timeout_seconds = 0.5;
        socket_options.io_timeout_seconds = 5.0;
        return MaybeWrapChaos(
            std::make_unique<transport::SocketChannel>(address,
                                                       socket_options),
            chaos, chaos_seed);
      };
      break;
    }
    case StackKind::kConnect: {
      if (options.connect.empty()) {
        return Status::InvalidArgument("kConnect needs an address");
      }
      const std::string address = options.connect;
      service_options.channel_decorator =
          [address, chaos, chaos_seed](transport::Channel*)
          -> std::unique_ptr<transport::Channel> {
        transport::SocketChannelOptions socket_options;
        socket_options.connect_timeout_seconds = 0.5;
        socket_options.io_timeout_seconds = 5.0;
        return MaybeWrapChaos(
            std::make_unique<transport::SocketChannel>(address,
                                                       socket_options),
            chaos, chaos_seed);
      };
      break;
    }
  }

  stack->service_ = std::make_unique<CasperService>(service_options);
  return stack;
}

ScenarioStack::~ScenarioStack() {
  // The service's resilient client holds the channel into the
  // listener; drop it before the backend it talks to.
  service_.reset();
  if (listener_ != nullptr) listener_->Shutdown();
}

void ScenarioStack::ProvisionTargets(
    const std::vector<processor::PublicTarget>& targets) {
  targets_ = targets;
  switch (options_.kind) {
    case StackKind::kFacade:
      service_->SetPublicTargets(targets);
      break;
    case StackKind::kSocket:
      socket_server_->SetPublicTargets(targets);
      break;
    case StackKind::kConnect:
      // Server-side provisioning happened at `casper_cli serve
      // --targets=N --targets-seed=S`; the local copy is the oracle's
      // ground truth only.
      break;
  }
}

}  // namespace casper::scenarios
