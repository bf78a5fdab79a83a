//! Service types for service-based clustering (§III.A).
//!
//! "DCs usually store their data on servers according to data type, such as
//! file servers, data servers, backup servers, etc." — VMs are tagged with a
//! [`ServiceType`] and the AL-VC architecture groups same-service VMs into a
//! virtual cluster. "The number of services in a data center is defined by
//! the network operator", hence [`ServiceType::Custom`].

/// The service a VM provides. Same-service VMs exhibit high traffic
/// correlation and are clustered together.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ServiceType {
    /// Three-tier web serving.
    WebService,
    /// Map-Reduce / batch analytics.
    MapReduce,
    /// Social networking services (the paper's "SNS" cluster).
    Sns,
    /// File/data storage.
    Storage,
    /// Backup and archival.
    Backup,
    /// Video streaming / transcoding.
    Streaming,
    /// Operator-defined service class.
    Custom(u16),
}

impl ServiceType {
    /// The built-in (non-custom) service types.
    pub const BUILTIN: [ServiceType; 6] = [
        ServiceType::WebService,
        ServiceType::MapReduce,
        ServiceType::Sns,
        ServiceType::Storage,
        ServiceType::Backup,
        ServiceType::Streaming,
    ];

    /// A short label for reports. Allocation-free: built-in labels are
    /// static, custom labels are formatted once per distinct id and cached
    /// for the process lifetime (labels flow into the `LabelId` interner and
    /// per-call `String`s would be redundant clones on hot paths).
    pub fn label(&self) -> &'static str {
        match self {
            ServiceType::WebService => "web",
            ServiceType::MapReduce => "mapreduce",
            ServiceType::Sns => "sns",
            ServiceType::Storage => "storage",
            ServiceType::Backup => "backup",
            ServiceType::Streaming => "streaming",
            ServiceType::Custom(n) => custom_label(*n),
        }
    }
}

/// Process-lifetime cache of `custom-<n>` labels: one leaked allocation per
/// distinct custom id ever labelled, instead of one per call.
fn custom_label(n: u16) -> &'static str {
    use std::collections::HashMap;
    use std::sync::{Mutex, OnceLock};
    static CACHE: OnceLock<Mutex<HashMap<u16, &'static str>>> = OnceLock::new();
    let mut cache = CACHE
        .get_or_init(|| Mutex::new(HashMap::new()))
        .lock()
        .expect("custom-label cache poisoned");
    cache
        .entry(n)
        .or_insert_with(|| Box::leak(format!("custom-{n}").into_boxed_str()))
}

impl std::fmt::Display for ServiceType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// A weighted mix of service types used when generating VM populations.
///
/// # Example
///
/// ```
/// use alvc_topology::{ServiceMix, ServiceType};
///
/// let mix = ServiceMix::uniform(&[ServiceType::WebService, ServiceType::MapReduce]);
/// assert_ne!(mix, ServiceMix::default());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceMix {
    entries: Vec<(ServiceType, f64)>,
}

impl ServiceMix {
    /// Builds a mix with explicit weights. Weights need not sum to one;
    /// they are normalized on sampling.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is empty or any weight is not strictly positive.
    pub(crate) fn new(entries: Vec<(ServiceType, f64)>) -> Self {
        assert!(!entries.is_empty(), "service mix must not be empty");
        for (s, w) in &entries {
            assert!(*w > 0.0, "weight for {s} must be positive");
        }
        ServiceMix { entries }
    }

    /// Uniform mix over the given services.
    ///
    /// # Panics
    ///
    /// Panics if `services` is empty.
    pub fn uniform(services: &[ServiceType]) -> Self {
        ServiceMix::new(services.iter().map(|&s| (s, 1.0)).collect())
    }

    /// The normalized weight of `service`, 0 if absent.
    #[cfg(test)]
    fn weight(&self, service: ServiceType) -> f64 {
        let total: f64 = self.entries.iter().map(|&(_, w)| w).sum();
        self.entries
            .iter()
            .find(|&&(s, _)| s == service)
            .map_or(0.0, |&(_, w)| w / total)
    }

    /// Samples a service given a uniform draw `u ∈ [0, 1)`.
    pub(crate) fn sample(&self, u: f64) -> ServiceType {
        let total: f64 = self.entries.iter().map(|&(_, w)| w).sum();
        let mut acc = 0.0;
        let target = u.clamp(0.0, 1.0) * total;
        for &(s, w) in &self.entries {
            acc += w;
            if target < acc {
                return s;
            }
        }
        self.entries.last().expect("mix non-empty").0
    }
}

impl Default for ServiceMix {
    /// Uniform over the built-in services.
    fn default() -> Self {
        ServiceMix::uniform(&ServiceType::BUILTIN)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_distinct() {
        use std::collections::HashSet;
        let labels: HashSet<_> = ServiceType::BUILTIN.iter().map(|s| s.label()).collect();
        assert_eq!(labels.len(), ServiceType::BUILTIN.len());
        assert_eq!(ServiceType::Custom(3).label(), "custom-3");
    }

    #[test]
    fn uniform_mix_weights() {
        let mix = ServiceMix::uniform(&[ServiceType::WebService, ServiceType::Sns]);
        assert!((mix.weight(ServiceType::WebService) - 0.5).abs() < 1e-12);
        assert_eq!(mix.weight(ServiceType::Backup), 0.0);
    }

    #[test]
    fn sampling_covers_all_entries() {
        let mix = ServiceMix::new(vec![
            (ServiceType::WebService, 1.0),
            (ServiceType::MapReduce, 3.0),
        ]);
        assert_eq!(mix.sample(0.0), ServiceType::WebService);
        assert_eq!(mix.sample(0.24), ServiceType::WebService);
        assert_eq!(mix.sample(0.26), ServiceType::MapReduce);
        assert_eq!(mix.sample(0.999), ServiceType::MapReduce);
    }

    #[test]
    fn sample_clamps_out_of_range() {
        let mix = ServiceMix::uniform(&[ServiceType::Storage]);
        assert_eq!(mix.sample(-1.0), ServiceType::Storage);
        assert_eq!(mix.sample(2.0), ServiceType::Storage);
    }

    #[test]
    #[should_panic(expected = "must not be empty")]
    fn empty_mix_rejected() {
        ServiceMix::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn non_positive_weight_rejected() {
        ServiceMix::new(vec![(ServiceType::Sns, 0.0)]);
    }

    #[test]
    fn default_mix_is_uniform_builtin() {
        let mix = ServiceMix::default();
        for s in ServiceType::BUILTIN {
            assert!((mix.weight(s) - 1.0 / 6.0).abs() < 1e-12);
        }
    }
}
