//! Inference requests and their shape distribution.
//!
//! A request is a prompt of some length that generates some number of output tokens, sent by
//! a customer (the customer identity matters for KV-cache-affinity routing, §4.5). A
//! [`RequestShape`] parameterizes the log-normal prompt/output lengths, matching the
//! heavy-tailed shapes reported for production conversational traces; the cluster's
//! request fabric draws from it.

use serde::{Deserialize, Serialize};
use simkit::time::SimTime;

/// A unique request identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct RequestId(pub u64);

/// A customer identifier (used for KV-cache affinity routing).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct CustomerId(pub u64);

/// One LLM inference request.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InferenceRequest {
    /// Unique id.
    pub id: RequestId,
    /// The customer issuing the request.
    pub customer: CustomerId,
    /// Arrival time.
    pub arrival: SimTime,
    /// Prompt length in tokens.
    pub prompt_tokens: usize,
    /// Number of output tokens to generate.
    pub output_tokens: usize,
}

/// Parameters of the request-shape distribution.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RequestShape {
    /// Median prompt length in tokens.
    pub median_prompt_tokens: f64,
    /// Log-normal sigma of the prompt length.
    pub prompt_sigma: f64,
    /// Median output length in tokens.
    pub median_output_tokens: f64,
    /// Log-normal sigma of the output length.
    pub output_sigma: f64,
    /// Maximum total sequence length (longer draws are truncated).
    pub max_total_tokens: usize,
}

impl Default for RequestShape {
    fn default() -> Self {
        Self {
            median_prompt_tokens: 512.0,
            prompt_sigma: 0.9,
            median_output_tokens: 200.0,
            output_sigma: 0.8,
            max_total_tokens: 8192,
        }
    }
}

impl RequestShape {
    /// Scales `(prompt, output)` down proportionally if their sum exceeds
    /// `max_total_tokens`, keeping each at least one token.
    #[must_use]
    #[inline]
    pub fn clamp(&self, prompt: usize, output: usize) -> (usize, usize) {
        let max_total = self.max_total_tokens;
        let total = prompt + output;
        if total <= max_total || total == 0 {
            return (prompt, output);
        }
        let scale = max_total as f64 / total as f64;
        let prompt = ((prompt as f64 * scale).floor() as usize).max(1);
        let output = (max_total - prompt).max(1);
        (prompt, output)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clamp_total_preserves_budget() {
        let shape = |max_total_tokens| RequestShape {
            max_total_tokens,
            ..RequestShape::default()
        };
        assert_eq!(shape(300).clamp(100, 100), (100, 100));
        let (p, o) = shape(8192).clamp(6000, 6000);
        assert!(p + o <= 8192);
        assert!(p >= 1 && o >= 1);
        let (p, o) = shape(4096).clamp(10_000, 1);
        assert!(p + o <= 4096);
    }
}
