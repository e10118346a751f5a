use std::fmt;

use ens_dist::DistError;
use ens_filter::FilterError;
use ens_service::ServiceError;
use ens_types::TypesError;

/// Errors produced by workload generation and experiment runners.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum WorkloadError {
    /// Generator configuration does not fit the schema.
    Shape(String),
    /// A filter operation failed.
    Filter(FilterError),
    /// A distribution operation failed.
    Dist(DistError),
    /// A data-model operation failed.
    Types(TypesError),
    /// A broker operation failed.
    Service(ServiceError),
}

impl fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkloadError::Shape(msg) => write!(f, "workload shape mismatch: {msg}"),
            WorkloadError::Filter(e) => write!(f, "{e}"),
            WorkloadError::Dist(e) => write!(f, "{e}"),
            WorkloadError::Types(e) => write!(f, "{e}"),
            WorkloadError::Service(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for WorkloadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WorkloadError::Filter(e) => Some(e),
            WorkloadError::Dist(e) => Some(e),
            WorkloadError::Types(e) => Some(e),
            WorkloadError::Service(e) => Some(e),
            WorkloadError::Shape(_) => None,
        }
    }
}

impl From<FilterError> for WorkloadError {
    fn from(e: FilterError) -> Self {
        WorkloadError::Filter(e)
    }
}
impl From<DistError> for WorkloadError {
    fn from(e: DistError) -> Self {
        WorkloadError::Dist(e)
    }
}
impl From<TypesError> for WorkloadError {
    fn from(e: TypesError) -> Self {
        WorkloadError::Types(e)
    }
}
impl From<ServiceError> for WorkloadError {
    fn from(e: ServiceError) -> Self {
        WorkloadError::Service(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        use std::error::Error;
        let e: WorkloadError = DistError::EmptyPmf.into();
        assert!(e.source().is_some());
        let e: WorkloadError = TypesError::NonFiniteValue.into();
        assert!(e.to_string().contains("finite"));
        assert!(WorkloadError::Shape("x".into()).source().is_none());
    }
}
