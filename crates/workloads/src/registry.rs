//! Name-or-file workload resolution.
//!
//! [`WorkloadRegistry`] is the single lookup path for workloads: it names
//! the built-in presets, and [`WorkloadRegistry::resolve`] also accepts a
//! *path* to a spec JSON file (e.g. a generated one) — so experiments,
//! bench, and fleet all take "a workload" as either a known name (`"db"`)
//! or a file (`"specs/gen-1f2e3d4c.json"`) without string-matching preset
//! names themselves.

use crate::builder::BuildError;
use crate::ir::Program;
use crate::presets::parsed_presets;
use crate::spec::WorkloadSpec;
use std::fmt;

/// Error from workload resolution.
#[derive(Debug)]
#[non_exhaustive]
pub enum WorkloadError {
    /// The name matched no registered workload (and did not look like a
    /// spec-file path). Carries the registered names for the message.
    Unknown {
        /// The name that failed to resolve.
        name: String,
        /// The registered names.
        known: Vec<String>,
    },
    /// A spec file could not be read.
    Io {
        /// The path that failed.
        path: String,
        /// The I/O error text.
        msg: String,
    },
    /// A spec file was not valid `WorkloadSpec` JSON.
    Parse {
        /// The path that failed to parse.
        path: String,
        /// The parse error text.
        msg: String,
    },
    /// The spec resolved but failed to build a program.
    Build {
        /// The workload name.
        name: String,
        /// The underlying build error.
        source: BuildError,
    },
}

impl fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkloadError::Unknown { name, known } => {
                write!(f, "unknown workload '{name}' (known: {})", known.join(", "))
            }
            WorkloadError::Io { path, msg } => write!(f, "reading spec file '{path}': {msg}"),
            WorkloadError::Parse { path, msg } => write!(f, "parsing spec file '{path}': {msg}"),
            WorkloadError::Build { name, source } => write!(f, "building '{name}': {source}"),
        }
    }
}

impl std::error::Error for WorkloadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WorkloadError::Build { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// The table of built-in [`WorkloadSpec`]s: `check` plus the seven
/// presets, parsed once from the embedded preset files.
///
/// # Examples
///
/// ```
/// use ace_workloads::WorkloadRegistry;
///
/// let reg = WorkloadRegistry::builtin();
/// assert!(reg.names().iter().any(|n| *n == "db"));
/// let spec = reg.resolve("db").unwrap();
/// assert_eq!(spec.name, "db");
/// assert!(reg.resolve("fortran").is_err());
/// ```
#[derive(Debug, Clone, Copy)]
pub struct WorkloadRegistry;

impl WorkloadRegistry {
    /// The built-in registry: `check` plus the seven presets.
    pub fn builtin() -> WorkloadRegistry {
        WorkloadRegistry
    }

    /// Registered workload names: `check`, then the presets in the
    /// paper's order.
    pub fn names(&self) -> Vec<&'static str> {
        parsed_presets().iter().map(|s| s.name.as_str()).collect()
    }

    /// The spec registered under `name`, if any.
    pub fn get(&self, name: &str) -> Option<&'static WorkloadSpec> {
        parsed_presets().iter().find(|s| s.name == name)
    }

    /// Resolves `name_or_path` to a spec: a registered name wins; anything
    /// that looks like a path (contains a separator or ends in `.json`) is
    /// read and parsed as a spec file; everything else is
    /// [`WorkloadError::Unknown`].
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError`] for unknown names and unreadable or
    /// unparsable spec files.
    pub fn resolve(&self, name_or_path: &str) -> Result<WorkloadSpec, WorkloadError> {
        if let Some(spec) = self.get(name_or_path) {
            return Ok(spec.clone());
        }
        if looks_like_path(name_or_path) {
            return load_spec_file(name_or_path);
        }
        Err(WorkloadError::Unknown {
            name: name_or_path.to_string(),
            known: self.names().into_iter().map(String::from).collect(),
        })
    }

    /// Resolves and builds in one step.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError`] if resolution fails or the spec does not
    /// build.
    pub fn resolve_program(&self, name_or_path: &str) -> Result<Program, WorkloadError> {
        let spec = self.resolve(name_or_path)?;
        spec.build().map_err(|source| WorkloadError::Build {
            name: spec.name.clone(),
            source,
        })
    }
}

/// Whether `s` is meant as a spec-file path rather than a workload name.
fn looks_like_path(s: &str) -> bool {
    s.contains('/') || s.contains('\\') || s.ends_with(".json")
}

/// Reads and parses a spec JSON file.
///
/// # Errors
///
/// Returns [`WorkloadError::Io`] or [`WorkloadError::Parse`].
pub fn load_spec_file(path: &str) -> Result<WorkloadSpec, WorkloadError> {
    let text = std::fs::read_to_string(path).map_err(|e| WorkloadError::Io {
        path: path.to_string(),
        msg: e.to_string(),
    })?;
    serde_json::from_str(&text).map_err(|e| WorkloadError::Parse {
        path: path.to_string(),
        msg: e.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets::PRESET_NAMES;

    #[test]
    fn builtin_has_check_and_the_seven() {
        let reg = WorkloadRegistry::builtin();
        assert_eq!(reg.names().len(), 8);
        assert_eq!(reg.names()[0], "check");
        for name in PRESET_NAMES {
            assert!(reg.get(name).is_some(), "{name}");
        }
    }

    #[test]
    fn unknown_name_lists_known() {
        let reg = WorkloadRegistry::builtin();
        let err = reg.resolve("fortran").unwrap_err();
        assert!(err.to_string().contains("db"), "{err}");
    }

    #[test]
    fn resolve_reads_spec_files() {
        let reg = WorkloadRegistry::builtin();
        let spec = reg.resolve("db").unwrap();
        let dir = std::env::temp_dir().join("ace-registry-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("custom.json");
        let mut custom = spec.clone();
        custom.name = "custom-db".into();
        std::fs::write(&path, serde_json::to_string(&custom).unwrap()).unwrap();
        let loaded = reg.resolve(path.to_str().unwrap()).unwrap();
        assert_eq!(loaded, custom);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn deeply_nested_spec_file_is_a_parse_error() {
        let dir = std::env::temp_dir().join(format!("ace-registry-deep-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("deep.json");
        std::fs::write(&path, "[".repeat(50_000)).unwrap();
        let err = load_spec_file(path.to_str().unwrap()).unwrap_err();
        std::fs::remove_dir_all(&dir).ok();
        assert!(
            matches!(&err, WorkloadError::Parse { msg, .. } if msg.contains("nesting")),
            "{err}"
        );
    }

    #[test]
    fn missing_spec_file_is_io_error() {
        let reg = WorkloadRegistry::builtin();
        assert!(matches!(
            reg.resolve("no/such/dir/spec.json"),
            Err(WorkloadError::Io { .. })
        ));
    }

    #[test]
    fn resolve_program_builds() {
        let reg = WorkloadRegistry::builtin();
        let p = reg.resolve_program("check").unwrap();
        assert_eq!(p.name(), "check");
    }
}
