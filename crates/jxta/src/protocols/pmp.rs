//! Peer Membership Protocol (PMP).
//!
//! Joining a peer group is a two-step dance (the paper's Figure 4): the peer
//! first *applies*, learning the group's membership requirements (e.g. a
//! password credential), and then *joins* by presenting a credential. The
//! protocol also covers leaving and renewing membership.

use super::{required_child, ProtocolPayload};
use crate::error::JxtaError;
use crate::id::{PeerGroupId, PeerId};
use crate::xml::XmlElement;

/// The credential requirements a group imposes on applicants.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CredentialRequirement {
    /// No credential is required.
    None,
    /// A password must be presented.
    Password,
}

impl CredentialRequirement {
    fn as_str(&self) -> &'static str {
        match self {
            CredentialRequirement::None => "none",
            CredentialRequirement::Password => "password",
        }
    }

    fn parse(s: &str) -> Result<Self, JxtaError> {
        match s {
            "none" => Ok(CredentialRequirement::None),
            "password" => Ok(CredentialRequirement::Password),
            other => Err(JxtaError::BadXml(format!(
                "unknown credential requirement {other}"
            ))),
        }
    }
}

/// A credential presented when joining.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum Credential {
    /// No credential.
    #[default]
    None,
    /// A plain password credential.
    Password(String),
}

impl Credential {
    fn to_xml(&self) -> XmlElement<'_> {
        match self {
            Credential::None => XmlElement::with_text("Credential", "none"),
            Credential::Password(pw) => XmlElement::with_text("Credential", "password").attr("secret", pw),
        }
    }

    fn from_xml(xml: &XmlElement<'_>) -> Credential {
        match xml.text.trim() {
            "password" => Credential::Password(xml.attribute("secret").unwrap_or("").to_owned()),
            _ => Credential::None,
        }
    }
}

/// The membership operation being requested.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MembershipOp {
    /// Ask what credentials are required ("apply").
    Apply,
    /// Join with a credential.
    Join(Credential),
    /// Renew an existing membership.
    Renew,
    /// Leave the group.
    Leave,
}

/// A membership query addressed to a group's membership authority.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MembershipQuery {
    /// The group concerned.
    pub group_id: PeerGroupId,
    /// The peer making the request.
    pub applicant: PeerId,
    /// The requested operation.
    pub op: MembershipOp,
}

impl ProtocolPayload for MembershipQuery {
    const ROOT: &'static str = "jxta:MembershipQuery";

    fn to_xml(&self) -> XmlElement<'_> {
        let mut root = XmlElement::new(Self::ROOT)
            .text_child("Gid", self.group_id.to_string())
            .text_child("Applicant", self.applicant.to_string());
        match &self.op {
            MembershipOp::Apply => root.push_child(XmlElement::with_text("Op", "apply")),
            MembershipOp::Renew => root.push_child(XmlElement::with_text("Op", "renew")),
            MembershipOp::Leave => root.push_child(XmlElement::with_text("Op", "leave")),
            MembershipOp::Join(credential) => {
                root.push_child(XmlElement::with_text("Op", "join"));
                root.push_child(credential.to_xml());
            }
        }
        root
    }

    fn from_xml(xml: &XmlElement<'_>) -> Result<Self, JxtaError> {
        let group_id = required_child(xml, "Gid")?
            .parse()
            .map_err(|e| JxtaError::BadXml(format!("bad group id: {e}")))?;
        let applicant = required_child(xml, "Applicant")?
            .parse()
            .map_err(|e| JxtaError::BadXml(format!("bad applicant id: {e}")))?;
        let op = match required_child(xml, "Op")? {
            "apply" => MembershipOp::Apply,
            "renew" => MembershipOp::Renew,
            "leave" => MembershipOp::Leave,
            "join" => {
                let credential = xml
                    .first_child("Credential")
                    .map(Credential::from_xml)
                    .unwrap_or_default();
                MembershipOp::Join(credential)
            }
            other => return Err(JxtaError::BadXml(format!("unknown membership op {other}"))),
        };
        Ok(MembershipQuery {
            group_id,
            applicant,
            op,
        })
    }
}

/// The outcome of a membership query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MembershipVerdict {
    /// Response to an apply: these are the requirements.
    Requirements(CredentialRequirement),
    /// The join/renew was accepted.
    Accepted,
    /// The join/renew was rejected for the given reason.
    Rejected(String),
    /// Leave acknowledged.
    Left,
}

/// A membership response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MembershipResponse {
    /// The group concerned.
    pub group_id: PeerGroupId,
    /// The verdict.
    pub verdict: MembershipVerdict,
}

impl ProtocolPayload for MembershipResponse {
    const ROOT: &'static str = "jxta:MembershipResponse";

    fn to_xml(&self) -> XmlElement<'_> {
        let mut root = XmlElement::new(Self::ROOT).text_child("Gid", self.group_id.to_string());
        match &self.verdict {
            MembershipVerdict::Requirements(req) => {
                root.push_child(XmlElement::with_text("Verdict", "requirements").attr("req", req.as_str()));
            }
            MembershipVerdict::Accepted => root.push_child(XmlElement::with_text("Verdict", "accepted")),
            MembershipVerdict::Left => root.push_child(XmlElement::with_text("Verdict", "left")),
            MembershipVerdict::Rejected(reason) => {
                root.push_child(XmlElement::with_text("Verdict", "rejected").attr("reason", reason));
            }
        }
        root
    }

    fn from_xml(xml: &XmlElement<'_>) -> Result<Self, JxtaError> {
        let group_id = required_child(xml, "Gid")?
            .parse()
            .map_err(|e| JxtaError::BadXml(format!("bad group id: {e}")))?;
        let verdict_xml = xml
            .first_child("Verdict")
            .ok_or_else(|| JxtaError::MissingElement("Verdict".into()))?;
        let verdict = match verdict_xml.text.trim() {
            "accepted" => MembershipVerdict::Accepted,
            "left" => MembershipVerdict::Left,
            "rejected" => {
                MembershipVerdict::Rejected(verdict_xml.attribute("reason").unwrap_or("").to_owned())
            }
            "requirements" => MembershipVerdict::Requirements(CredentialRequirement::parse(
                verdict_xml.attribute("req").unwrap_or("none"),
            )?),
            other => return Err(JxtaError::BadXml(format!("unknown verdict {other}"))),
        };
        Ok(MembershipResponse { group_id, verdict })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gid() -> PeerGroupId {
        PeerGroupId::derive("ps-SkiRental")
    }

    #[test]
    fn apply_and_join_roundtrip() {
        let apply = MembershipQuery {
            group_id: gid(),
            applicant: PeerId::derive("a"),
            op: MembershipOp::Apply,
        };
        assert_eq!(
            MembershipQuery::from_xml_string(&apply.to_xml_string()).unwrap(),
            apply
        );

        let join = MembershipQuery {
            group_id: gid(),
            applicant: PeerId::derive("a"),
            op: MembershipOp::Join(Credential::Password("hunter2".into())),
        };
        let decoded = MembershipQuery::from_xml_string(&join.to_xml_string()).unwrap();
        assert_eq!(decoded, join);
    }

    #[test]
    fn leave_and_renew_roundtrip() {
        for op in [MembershipOp::Leave, MembershipOp::Renew] {
            let q = MembershipQuery {
                group_id: gid(),
                applicant: PeerId::derive("a"),
                op,
            };
            assert_eq!(MembershipQuery::from_xml_string(&q.to_xml_string()).unwrap(), q);
        }
    }

    #[test]
    fn responses_roundtrip() {
        for verdict in [
            MembershipVerdict::Requirements(CredentialRequirement::Password),
            MembershipVerdict::Requirements(CredentialRequirement::None),
            MembershipVerdict::Accepted,
            MembershipVerdict::Rejected("bad password".into()),
            MembershipVerdict::Left,
        ] {
            let r = MembershipResponse {
                group_id: gid(),
                verdict,
            };
            assert_eq!(
                MembershipResponse::from_xml_string(&r.to_xml_string()).unwrap(),
                r
            );
        }
    }

    #[test]
    fn malformed_is_rejected() {
        assert!(MembershipQuery::from_xml_string("<jxta:MembershipQuery/>").is_err());
        let bad_op = XmlElement::new(MembershipQuery::ROOT)
            .text_child("Gid", gid().to_string())
            .text_child("Applicant", PeerId::derive("a").to_string())
            .text_child("Op", "teleport");
        assert!(MembershipQuery::from_xml(&bad_op).is_err());
    }
}
