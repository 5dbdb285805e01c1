/// A dataset descriptor: what the FL client stores locally and feeds to the
/// training loop.
///
/// Only coarse, pipeline-relevant properties are modeled — raw sample size
/// (drives host preprocessing and I/O), number of classes (drives the
/// synthetic classifier in `bofl-fl`) and a human-readable name.
///
/// # Examples
///
/// ```
/// use bofl_workload::Dataset;
///
/// let d = Dataset::cifar10();
/// assert_eq!(d.num_classes(), 10);
/// assert_eq!(d.sample_bytes(), 32 * 32 * 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dataset {
    name: String,
    sample_bytes: u64,
    num_classes: u32,
}

impl Dataset {
    /// Creates a custom dataset descriptor.
    ///
    /// # Panics
    ///
    /// Panics if `sample_bytes` or `num_classes` is zero.
    pub fn new(name: impl Into<String>, sample_bytes: u64, num_classes: u32) -> Self {
        let name = name.into();
        assert!(sample_bytes > 0, "dataset {name}: sample_bytes must be > 0");
        assert!(num_classes > 0, "dataset {name}: num_classes must be > 0");
        Dataset {
            name,
            sample_bytes,
            num_classes,
        }
    }

    /// CIFAR10: 32×32 RGB images, 10 classes.
    pub fn cifar10() -> Self {
        Dataset::new("CIFAR10", 32 * 32 * 3, 10)
    }

    /// ImageNet: images cropped to 224×224 RGB for training, 1000 classes.
    pub(crate) fn imagenet() -> Self {
        Dataset::new("ImageNet", 224 * 224 * 3, 1000)
    }

    /// IMDB movie reviews: ~1 KiB of text per review on average, binary
    /// sentiment labels.
    pub(crate) fn imdb() -> Self {
        Dataset::new("IMDB", 1024, 2)
    }

    /// Raw bytes per sample before preprocessing.
    pub fn sample_bytes(&self) -> u64 {
        self.sample_bytes
    }

    /// Number of label classes.
    pub fn num_classes(&self) -> u32 {
        self.num_classes
    }
}

impl std::fmt::Display for Dataset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets() {
        assert_eq!(Dataset::cifar10().num_classes(), 10);
        assert_eq!(Dataset::imagenet().num_classes(), 1000);
        assert_eq!(Dataset::imdb().num_classes(), 2);
        assert!(Dataset::imagenet().sample_bytes() > Dataset::cifar10().sample_bytes());
    }

    #[test]
    #[should_panic(expected = "num_classes must be > 0")]
    fn rejects_zero_classes() {
        let _ = Dataset::new("bad", 10, 0);
    }

    #[test]
    fn display_is_name() {
        assert_eq!(Dataset::imdb().to_string(), "IMDB");
    }
}
