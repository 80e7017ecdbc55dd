#include "hirep/agent.hpp"

#include "crypto/verify_cache.hpp"

namespace hirep::core {

ReputationAgent::ReputationAgent(const crypto::Identity* identity,
                                 net::NodeIndex self,
                                 const trust::GroundTruth* truth,
                                 trust::TrustModelFactory model_factory,
                                 std::size_t min_reports_for_model)
    : identity_(identity),
      self_(self),
      truth_(truth),
      model_factory_(std::move(model_factory)),
      min_reports_for_model_(min_reports_for_model) {}

bool ReputationAgent::register_key(const crypto::NodeId& id,
                                   const crypto::RsaPublicKey& sp) {
  if (lists_key(id, sp)) return true;
  // Self-certifying check: the id must be the hash of the key.  This is
  // what forecloses man-in-the-middle key substitution (§3.3).
  if (crypto::node_id_of_cached(sp) != id) return false;
  key_list_.try_emplace(id, sp);
  return true;
}

bool ReputationAgent::migrate_key(
    const crypto::NodeId& old_id,
    const crypto::Identity::RotationAnnouncement& announcement) {
  const auto it = key_list_.find(old_id);
  if (it == key_list_.end()) return false;
  if (announcement.old_id != old_id) return false;
  if (!crypto::Identity::verify_rotation(it->second, announcement)) {
    return false;
  }
  const crypto::NodeId new_id =
      crypto::node_id_of_cached(announcement.new_signature_public);
  key_list_.erase(it);
  key_list_.emplace(new_id, announcement.new_signature_public);
  // Accumulated evidence about the subject follows the identity.  The node
  // moves as a handle, so no iterator has to survive a rehash; an entry
  // already under new_id is kept and the moved one dropped.
  if (auto node = store_.extract(old_id)) {
    node.key() = new_id;
    store_.insert(std::move(node));
  }
  return true;
}

std::optional<crypto::RsaPublicKey> ReputationAgent::lookup_key(
    const crypto::NodeId& id) const {
  const auto it = key_list_.find(id);
  if (it == key_list_.end()) return std::nullopt;
  return it->second;
}

double ReputationAgent::trust_value(const crypto::NodeId& subject,
                                    net::NodeIndex subject_ip,
                                    util::Rng& rng) const {
  const bool poor = truth_->poor_evaluator(self_);
  if (!poor) {
    // A good agent prefers accumulated authentic reports once it has seen
    // enough of them; otherwise it falls back to its own evaluation.
    const auto it = store_.find(subject);
    if (it != store_.end() &&
        it->second->observations() >= min_reports_for_model_) {
      return it->second->value();
    }
  }
  return truth_->evaluate(self_, subject_ip, rng);
}

void ReputationAgent::accept_report(const crypto::NodeId& subject,
                                    double outcome) {
  if (truth_->poor_evaluator(self_)) return;  // malicious: evidence ignored
  auto it = store_.find(subject);
  if (it == store_.end()) {
    it = store_.emplace(subject, model_factory_()).first;
  }
  it->second->record(outcome);
}

std::size_t ReputationAgent::report_count(const crypto::NodeId& subject) const {
  const auto it = store_.find(subject);
  return it == store_.end() ? 0 : it->second->observations();
}

}  // namespace hirep::core
