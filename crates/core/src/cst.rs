//! Communication stabilization time (Definition 20).

use std::fmt;
use wan_sim::{Components, Round};

/// The three stabilization rounds whose maximum is the *communication
/// stabilization time* `CST = max{r_cf, r_acc, r_wake}` (Definition 20):
/// from `CST` on, solo broadcasts are delivered everywhere, the collision
/// detector is accurate, and exactly one process is advised active per
/// round. All the Section 7 termination bounds are stated relative to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cst {
    /// Eventual collision freedom round `r_cf` (Property 1), if declared.
    pub r_cf: Option<Round>,
    /// Detector accuracy round `r_acc` (Property 9), if declared.
    pub r_acc: Option<Round>,
    /// Contention manager stabilization round `r_wake` (Property 2), if
    /// declared.
    pub r_wake: Option<Round>,
}

impl Cst {
    /// Reads the declared stabilization rounds from a component bundle.
    pub fn from_components(components: &Components) -> Self {
        Cst {
            r_cf: components.loss.collision_free_from(),
            r_acc: components.detector.accuracy_from(),
            r_wake: components.manager.stabilized_from(),
        }
    }

    /// `CST` itself: the maximum of the three rounds. `None` if any
    /// component declines to declare its stabilization (e.g. a backoff
    /// manager, whose `r_wake` must be measured from the trace instead).
    pub fn value(&self) -> Option<Round> {
        match (self.r_cf, self.r_acc, self.r_wake) {
            (Some(cf), Some(acc), Some(wake)) => Some(cf.max(acc).max(wake)),
            _ => None,
        }
    }
}

impl fmt::Display for Cst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn opt(r: Option<Round>) -> String {
            r.map_or_else(|| "?".to_string(), |r| r.to_string())
        }
        write!(
            f,
            "CST{{r_cf={}, r_acc={}, r_wake={}}}",
            opt(self.r_cf),
            opt(self.r_acc),
            opt(self.r_wake)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_of_three() {
        let cst = Cst {
            r_cf: Some(Round(3)),
            r_acc: Some(Round(9)),
            r_wake: Some(Round(5)),
        };
        assert_eq!(cst.value(), Some(Round(9)));
    }

    #[test]
    fn missing_component_means_unknown() {
        let cst = Cst {
            r_cf: Some(Round(3)),
            r_acc: Some(Round(9)),
            r_wake: None,
        };
        assert_eq!(cst.value(), None);
        assert_eq!(cst.to_string(), "CST{r_cf=r3, r_acc=r9, r_wake=?}");
    }
}
