#include "src/transport/server_endpoint.h"

namespace casper::transport {

ServerEndpoint::ServerEndpoint(server::QueryServer* server)
    : server_(server) {
  CASPER_DCHECK(server != nullptr);
}

Result<std::string> ServerEndpoint::Handle(std::string_view request,
                                           const CallContext& context) {
  Result<MessageTag> tag = TagOf(request);
  if (!tag.ok()) {
    return Encode(AckMsg::For(0, Status::DataLoss("undecodable request")));
  }
  switch (tag.value()) {
    case MessageTag::kCloakedQuery: {
      Result<CloakedQueryMsg> query = DecodeCloakedQuery(request);
      if (!query.ok()) {
        return Encode(AckMsg::For(0, Status::DataLoss("undecodable request")));
      }
      Result<CandidateListMsg> answer =
          server_->Execute(query.value(), context.cache);
      if (!answer.ok()) {
        return Encode(AckMsg::For(query->request_id, answer.status()));
      }
      CandidateListMsg response = std::move(answer).value();
      response.request_id = query->request_id;
      return Encode(response);
    }
    case MessageTag::kRegionUpsert: {
      Result<RegionUpsertMsg> msg = DecodeRegionUpsert(request);
      if (!msg.ok()) {
        return Encode(AckMsg::For(0, Status::DataLoss("undecodable request")));
      }
      return Encode(AckMsg::For(msg->request_id, server_->Apply(msg.value())));
    }
    case MessageTag::kRegionRemove: {
      Result<RegionRemoveMsg> msg = DecodeRegionRemove(request);
      if (!msg.ok()) {
        return Encode(AckMsg::For(0, Status::DataLoss("undecodable request")));
      }
      return Encode(AckMsg::For(msg->request_id, server_->Apply(msg.value())));
    }
    case MessageTag::kSnapshot: {
      Result<SnapshotMsg> msg = DecodeSnapshot(request);
      if (!msg.ok()) {
        return Encode(AckMsg::For(0, Status::DataLoss("undecodable request")));
      }
      // Snapshots carry no request id (the whole-store replacement is
      // naturally idempotent); acks for them always echo 0.
      return Encode(AckMsg::For(0, server_->Load(msg.value())));
    }
    case MessageTag::kCandidateList:
    case MessageTag::kAck:
      return Encode(AckMsg::For(
          0, Status::InvalidArgument("response message sent as request")));
  }
  return Encode(AckMsg::For(0, Status::DataLoss("undecodable request")));
}

DirectChannel::DirectChannel(ServerEndpoint* endpoint) : endpoint_(endpoint) {
  CASPER_DCHECK(endpoint != nullptr);
}

Result<std::string> DirectChannel::Call(std::string_view request,
                                        const CallContext& context) {
  return endpoint_->Handle(request, context);
}

}  // namespace casper::transport
