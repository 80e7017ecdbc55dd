// Reputation agent (paper §3.2, §3.4–3.5).
//
// Any peer with bandwidth > 64 kbit/s may claim itself a reputation agent.
// An agent keeps:
//  * a public-key list {nodeId_i, SP_i} of the peers that trust it — grown
//    lazily from trust-value requests;
//  * a per-subject trust store, fed by (verified) transaction reports and
//    by the agent's own evaluation capability.
//
// A *good* agent folds authentic reports into its computation model — "a
// trusted reputation agent receives more information for trust computation
// than a peer based on local experience" (§4.2.3).  A *poor or malicious*
// agent answers with inverted evaluations and ignores the evidence.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>

#include "crypto/identity.hpp"
#include "trust/ground_truth.hpp"
#include "trust/trust_model.hpp"

namespace hirep::core {

class ReputationAgent {
 public:
  /// `identity` and `truth` must outlive the agent.  `self` is the agent's
  /// overlay index (its evaluation capability is looked up in `truth`).
  ReputationAgent(const crypto::Identity* identity, net::NodeIndex self,
                  const trust::GroundTruth* truth,
                  trust::TrustModelFactory model_factory,
                  std::size_t min_reports_for_model = 3);

  const crypto::Identity& identity() const noexcept { return *identity_; }
  const crypto::NodeId& node_id() const noexcept { return identity_->node_id(); }
  net::NodeIndex ip() const noexcept { return self_; }

  /// Registers a requestor's signature key (derives and checks the nodeId
  /// binding; a key whose hash mismatches the claimed id is rejected).  A
  /// key equal to the one already listed under `id` was checked when it
  /// was listed and is accepted without a second check.
  bool register_key(const crypto::NodeId& id, const crypto::RsaPublicKey& sp);
  /// True when `sp` is already the key listed under `id` — registering it
  /// again would change nothing.  Read-only and allocation-free.
  bool lists_key(const crypto::NodeId& id,
                 const crypto::RsaPublicKey& sp) const {
    const auto it = key_list_.find(id);
    return it != key_list_.end() && it->second == sp;
  }

  /// §3.5 key rotation: verifies an old-key-signed announcement and maps
  /// the old nodeId to the new one — key list entry AND accumulated trust
  /// evidence both migrate ("it is easy for a peer who receives the update
  /// message to map and replace an old nodeId to a new nodeId").  Returns
  /// false (no state change) when the announcement does not verify or the
  /// old id is unknown.
  bool migrate_key(const crypto::NodeId& old_id,
                   const crypto::Identity::RotationAnnouncement& announcement);
  std::optional<crypto::RsaPublicKey> lookup_key(const crypto::NodeId& id) const;
  std::size_t key_list_size() const noexcept { return key_list_.size(); }

  /// The agent's answer to "what is the trust value of `subject`?".
  /// `subject_ip` is the simulation-side handle used to consult the
  /// agent's innate evaluation capability.
  double trust_value(const crypto::NodeId& subject, net::NodeIndex subject_ip,
                     util::Rng& rng) const;

  /// Accepts a transaction report about `subject` after the caller has
  /// verified its signature (see protocol.hpp).  Good agents feed their
  /// model; poor agents drop the evidence.
  void accept_report(const crypto::NodeId& subject, double outcome);

  std::size_t report_count(const crypto::NodeId& subject) const;

 private:
  const crypto::Identity* identity_;
  net::NodeIndex self_;
  const trust::GroundTruth* truth_;
  trust::TrustModelFactory model_factory_;
  std::size_t min_reports_for_model_;

  // Hashed: looked up on every trust query and report, never iterated.
  std::unordered_map<crypto::NodeId, crypto::RsaPublicKey, crypto::NodeIdHash>
      key_list_;
  std::unordered_map<crypto::NodeId, std::unique_ptr<trust::TrustModel>,
                     crypto::NodeIdHash>
      store_;
};

}  // namespace hirep::core
