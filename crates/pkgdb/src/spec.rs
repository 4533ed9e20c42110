//! Package specifications and the package database.

use rehearsal_fs::FsPath;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// The operating-system flavor a database describes.
///
/// The original Rehearsal takes the platform as a command-line flag and
/// queries `apt-file` (Debian/Ubuntu) or `repoquery` (Red Hat/CentOS); the
/// flavor determines package names and file layouts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Platform {
    /// Debian/Ubuntu layout (apt).
    #[default]
    Ubuntu,
    /// Red Hat/CentOS layout (yum/rpm).
    Centos,
}

impl fmt::Display for Platform {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Platform::Ubuntu => write!(f, "ubuntu"),
            Platform::Centos => write!(f, "centos"),
        }
    }
}

impl std::str::FromStr for Platform {
    type Err = UnknownPlatformError;

    fn from_str(s: &str) -> Result<Platform, UnknownPlatformError> {
        match s.to_ascii_lowercase().as_str() {
            "ubuntu" | "debian" | "apt" => Ok(Platform::Ubuntu),
            "centos" | "redhat" | "rhel" | "yum" => Ok(Platform::Centos),
            _ => Err(UnknownPlatformError(s.to_string())),
        }
    }
}

/// Error parsing a [`Platform`] name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownPlatformError(String);

impl fmt::Display for UnknownPlatformError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown platform {:?} (expected ubuntu or centos)",
            self.0
        )
    }
}

impl std::error::Error for UnknownPlatformError {}

/// Everything the analyses need to know about one package: the regular
/// files it installs and its direct dependencies.
///
/// Directories are implied: every ancestor of an installed file is created
/// (as with real package managers).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackageSpec {
    name: String,
    files: Vec<FsPath>,
    depends: Vec<String>,
}

impl PackageSpec {
    /// Creates a spec. `files` are the regular files installed.
    pub fn new(name: impl Into<String>, files: Vec<FsPath>, depends: Vec<String>) -> PackageSpec {
        let mut files = files;
        files.sort();
        files.dedup();
        PackageSpec {
            name: name.into(),
            files,
            depends,
        }
    }

    /// The package name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The regular files this package installs (sorted).
    pub fn files(&self) -> &[FsPath] {
        &self.files
    }

    /// Direct dependencies (package names).
    pub fn depends(&self) -> &[String] {
        &self.depends
    }

    /// Every directory implied by the file list, sorted parents-first.
    pub fn directories(&self) -> Vec<FsPath> {
        let mut dirs: BTreeSet<FsPath> = BTreeSet::new();
        for f in &self.files {
            for a in f.ancestors() {
                if a != FsPath::root() {
                    dirs.insert(a);
                }
            }
        }
        let mut out: Vec<FsPath> = dirs.into_iter().collect();
        out.sort_by_key(|p| (p.depth(), *p));
        out
    }
}

/// Error for a package name missing from the database.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownPackageError {
    name: String,
    platform: Platform,
}

impl UnknownPackageError {
    /// The missing package's name.
    pub fn name(&self) -> &str {
        &self.name
    }
}

impl fmt::Display for UnknownPackageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "package {:?} is not in the {} package database",
            self.name, self.platform
        )
    }
}

impl std::error::Error for UnknownPackageError {}

/// A database of package listings for one platform.
///
/// This is Rehearsal's substitute for the paper's web service wrapping
/// `apt-file`/`repoquery`: a deterministic, in-memory map from package name
/// to file list and dependency metadata. See `DESIGN.md` §5 for why this
/// substitution preserves the experiments.
///
/// # Examples
///
/// ```
/// use rehearsal_pkgdb::{PackageDb, Platform};
/// let db = PackageDb::builtin(Platform::Ubuntu);
/// let apache = db.package("apache2")?;
/// assert!(apache.files().iter().any(|p| p.to_string().contains("apache2.conf")));
/// # Ok::<(), rehearsal_pkgdb::UnknownPackageError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct PackageDb {
    platform: Platform,
    /// Shared between clones and copied on the first [`PackageDb::insert`],
    /// so every [`PackageDb::builtin`] call hands out the one table built
    /// per platform.
    packages: Arc<BTreeMap<String, PackageSpec>>,
}

impl PackageDb {
    /// An empty database for `platform`.
    pub fn new(platform: Platform) -> PackageDb {
        PackageDb {
            platform,
            packages: Arc::default(),
        }
    }

    /// The built-in database for `platform`: realistic listings for the
    /// packages used by the paper's examples and our benchmarks.
    ///
    /// The table is built once per platform and process; each call
    /// returns a clone that shares it.
    pub fn builtin(platform: Platform) -> PackageDb {
        static UBUNTU: OnceLock<PackageDb> = OnceLock::new();
        static CENTOS: OnceLock<PackageDb> = OnceLock::new();
        let table = match platform {
            Platform::Ubuntu => &UBUNTU,
            Platform::Centos => &CENTOS,
        };
        table
            .get_or_init(|| crate::builtin::builtin_db(platform))
            .clone()
    }

    /// The platform this database describes.
    pub fn platform(&self) -> Platform {
        self.platform
    }

    /// Adds (or replaces) a package spec.
    pub fn insert(&mut self, spec: PackageSpec) {
        Arc::make_mut(&mut self.packages).insert(spec.name().to_string(), spec);
    }

    /// Whether `self` and `other` share one package table.
    #[cfg(test)]
    fn shares_table_with(&self, other: &PackageDb) -> bool {
        Arc::ptr_eq(&self.packages, &other.packages)
    }

    /// Looks up a package.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownPackageError`] if the package is not listed.
    pub fn package(&self, name: &str) -> Result<&PackageSpec, UnknownPackageError> {
        rehearsal_trace::counter_add("pkgdb.lookups", 1);
        match self.packages.get(name) {
            Some(spec) => Ok(spec),
            None => {
                rehearsal_trace::counter_add("pkgdb.misses", 1);
                Err(UnknownPackageError {
                    name: name.to_string(),
                    platform: self.platform,
                })
            }
        }
    }

    /// Whether the package is listed.
    pub fn contains(&self, name: &str) -> bool {
        self.packages.contains_key(name)
    }

    /// Iterates over all package names.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.packages.keys().map(String::as_str)
    }

    /// Number of packages.
    pub fn len(&self) -> usize {
        self.packages.len()
    }

    /// Whether the database is empty.
    pub fn is_empty(&self) -> bool {
        self.packages.is_empty()
    }

    /// The install closure of `name`: the package and all transitive
    /// dependencies, in BFS order starting from `name`, deduplicated.
    ///
    /// This mirrors `apt install`: installing a package also installs
    /// everything it depends on (the paper's golang-go/perl example relies
    /// on this).
    ///
    /// # Errors
    ///
    /// Returns [`UnknownPackageError`] if `name` or any dependency is
    /// missing from the database.
    pub fn install_closure(&self, name: &str) -> Result<Vec<&PackageSpec>, UnknownPackageError> {
        let mut seen: BTreeSet<&str> = BTreeSet::new();
        let mut queue: VecDeque<&str> = VecDeque::new();
        let mut out = Vec::new();
        queue.push_back(name);
        while let Some(n) = queue.pop_front() {
            if !seen.insert(n) {
                continue;
            }
            let spec = self.package(n)?;
            out.push(spec);
            for d in spec.depends() {
                queue.push_back(d);
            }
        }
        Ok(out)
    }

    /// The remove closure of `name`: the package and all transitive
    /// *reverse* dependents, in BFS order, deduplicated.
    ///
    /// This mirrors `apt remove`: removing a package also removes every
    /// package that depends on it.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownPackageError`] if `name` is missing.
    pub fn remove_closure(&self, name: &str) -> Result<Vec<&PackageSpec>, UnknownPackageError> {
        self.package(name)?;
        let mut seen: BTreeSet<&str> = BTreeSet::new();
        let mut queue: VecDeque<&str> = VecDeque::new();
        let mut out = Vec::new();
        queue.push_back(name);
        while let Some(n) = queue.pop_front() {
            if !seen.insert(n) {
                continue;
            }
            out.push(self.package(n).expect("seen packages exist"));
            for (other, spec) in self.packages.iter() {
                if spec.depends().iter().any(|d| d == n) {
                    queue.push_back(other);
                }
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> FsPath {
        FsPath::parse(s).unwrap()
    }

    fn tiny_db() -> PackageDb {
        let mut db = PackageDb::new(Platform::Ubuntu);
        db.insert(PackageSpec::new("perl", vec![p("/usr/bin/perl")], vec![]));
        db.insert(PackageSpec::new(
            "golang-go",
            vec![p("/usr/bin/go")],
            vec!["perl".to_string()],
        ));
        db.insert(PackageSpec::new(
            "app",
            vec![p("/usr/bin/app")],
            vec!["golang-go".to_string()],
        ));
        db
    }

    #[test]
    fn lookup_and_errors() {
        let db = tiny_db();
        assert!(db.package("perl").is_ok());
        let err = db.package("nope").unwrap_err();
        assert_eq!(err.name(), "nope");
        assert!(err.to_string().contains("ubuntu"));
    }

    #[test]
    fn install_closure_pulls_dependencies() {
        let db = tiny_db();
        let names: Vec<&str> = db
            .install_closure("app")
            .unwrap()
            .iter()
            .map(|s| s.name())
            .collect();
        assert_eq!(names, vec!["app", "golang-go", "perl"]);
    }

    #[test]
    fn remove_closure_pulls_reverse_dependents() {
        let db = tiny_db();
        let names: Vec<&str> = db
            .remove_closure("perl")
            .unwrap()
            .iter()
            .map(|s| s.name())
            .collect();
        assert_eq!(names, vec!["perl", "golang-go", "app"]);
    }

    #[test]
    fn directories_are_sorted_parents_first() {
        let spec = PackageSpec::new(
            "x",
            vec![p("/usr/share/doc/x/README"), p("/usr/bin/x")],
            vec![],
        );
        let dirs = spec.directories();
        let pos = |q: FsPath| dirs.iter().position(|&d| d == q).unwrap();
        assert!(pos(p("/usr")) < pos(p("/usr/share")));
        assert!(pos(p("/usr/share")) < pos(p("/usr/share/doc")));
        assert!(pos(p("/usr/share/doc")) < pos(p("/usr/share/doc/x")));
        assert!(!dirs.contains(&FsPath::root()));
    }

    #[test]
    fn cyclic_dependencies_terminate() {
        let mut db = PackageDb::new(Platform::Ubuntu);
        db.insert(PackageSpec::new("a", vec![p("/a")], vec!["b".to_string()]));
        db.insert(PackageSpec::new("b", vec![p("/b")], vec!["a".to_string()]));
        assert_eq!(db.install_closure("a").unwrap().len(), 2);
        assert_eq!(db.remove_closure("a").unwrap().len(), 2);
    }

    #[test]
    fn builtin_tables_are_shared_and_copied_on_write() {
        let a = PackageDb::builtin(Platform::Ubuntu);
        let b = PackageDb::builtin(Platform::Ubuntu);
        assert!(a.shares_table_with(&b));
        let centos = PackageDb::builtin(Platform::Centos);
        assert!(!a.shares_table_with(&centos));
        assert!(a.contains("apache2") && !centos.contains("apache2"));
        assert_eq!(centos.platform(), Platform::Centos);

        let mut edited = PackageDb::builtin(Platform::Ubuntu);
        edited.insert(PackageSpec::new("local-tool", vec![p("/opt/tool")], vec![]));
        assert!(edited.contains("local-tool"));
        assert!(!edited.shares_table_with(&a));
        assert!(!a.contains("local-tool"));
        let later = PackageDb::builtin(Platform::Ubuntu);
        assert!(!later.contains("local-tool"));
        assert!(later.shares_table_with(&a));
        assert_eq!(edited.len(), later.len() + 1);
    }

    #[test]
    fn platform_parsing() {
        assert_eq!("ubuntu".parse::<Platform>().unwrap(), Platform::Ubuntu);
        assert_eq!("CentOS".parse::<Platform>().unwrap(), Platform::Centos);
        assert!("windows".parse::<Platform>().is_err());
    }
}
