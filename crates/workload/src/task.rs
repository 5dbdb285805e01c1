use crate::{Dataset, NnModel};

/// Which physical testbed a preset targets (the paper's Table 1 devices).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Testbed {
    /// Nvidia Jetson AGX Xavier (8-core Carmel CPU, 512-core Volta GPU).
    JetsonAgx,
    /// Nvidia Jetson TX2 (Denver2 + Cortex-A57 CPU, 256-core Pascal GPU).
    JetsonTx2,
}

impl Testbed {
    /// All supported testbeds.
    pub fn all() -> [Testbed; 2] {
        [Testbed::JetsonAgx, Testbed::JetsonTx2]
    }
}

impl std::fmt::Display for Testbed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Testbed::JetsonAgx => write!(f, "Jetson AGX"),
            Testbed::JetsonTx2 => write!(f, "Jetson TX2"),
        }
    }
}

/// The three evaluation tasks of the paper's §6.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum TaskKind {
    /// Vision Transformer on CIFAR10.
    Cifar10Vit,
    /// ResNet50 on ImageNet.
    ImagenetResnet50,
    /// LSTM sentiment analysis on IMDB.
    ImdbLstm,
}

impl TaskKind {
    /// All evaluation tasks, in the paper's order.
    pub fn all() -> [TaskKind; 3] {
        [
            TaskKind::Cifar10Vit,
            TaskKind::ImagenetResnet50,
            TaskKind::ImdbLstm,
        ]
    }
}

impl std::fmt::Display for TaskKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TaskKind::Cifar10Vit => write!(f, "CIFAR10-ViT"),
            TaskKind::ImagenetResnet50 => write!(f, "ImageNet-ResNet50"),
            TaskKind::ImdbLstm => write!(f, "IMDB-LSTM"),
        }
    }
}

/// A federated-learning task as seen by one client device: the tuple
/// `(B, E, N)` of the paper's §3.1 plus the model and dataset being
/// trained.
///
/// - `B` — minibatch size,
/// - `E` — SGD epochs per round,
/// - `N` — number of minibatches of local data,
/// - `W = E × N` — jobs (minibatch computations) per round.
///
/// Deadlines are *not* stored here: they arrive from the server round by
/// round (see `bofl::runner` and `bofl-fl::server`).
///
/// # Examples
///
/// ```
/// use bofl_workload::{FlTask, TaskKind, Testbed};
///
/// let t = FlTask::preset(TaskKind::ImagenetResnet50, Testbed::JetsonTx2);
/// assert_eq!(t.epochs(), 2);
/// assert_eq!(t.minibatches(), 30);
/// assert_eq!(t.jobs_per_round(), 60);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FlTask {
    model: NnModel,
    dataset: Dataset,
    minibatch_size: usize,
    epochs: usize,
    minibatches: usize,
}

impl FlTask {
    /// Creates a custom FL task.
    ///
    /// # Panics
    ///
    /// Panics if `minibatch_size`, `epochs` or `minibatches` is zero.
    pub fn new(
        model: NnModel,
        dataset: Dataset,
        minibatch_size: usize,
        epochs: usize,
        minibatches: usize,
    ) -> Self {
        assert!(minibatch_size > 0, "minibatch_size must be > 0");
        assert!(epochs > 0, "epochs must be > 0");
        assert!(minibatches > 0, "minibatches must be > 0");
        FlTask {
            model,
            dataset,
            minibatch_size,
            epochs,
            minibatches,
        }
    }

    /// The Table 2 preset for a task/testbed combination.
    ///
    /// `B` and `E` are global (per task); `N` is per device because each
    /// device holds a different amount of local data.
    pub fn preset(kind: TaskKind, testbed: Testbed) -> Self {
        use TaskKind::*;
        use Testbed::*;
        let (model, dataset, b, e) = match kind {
            Cifar10Vit => (NnModel::vit(), Dataset::cifar10(), 32, 5),
            ImagenetResnet50 => (NnModel::resnet50(), Dataset::imagenet(), 8, 2),
            ImdbLstm => (NnModel::lstm(), Dataset::imdb(), 8, 4),
        };
        let n = match (kind, testbed) {
            (Cifar10Vit, JetsonAgx) => 40,
            (Cifar10Vit, JetsonTx2) => 15,
            (ImagenetResnet50, JetsonAgx) => 90,
            (ImagenetResnet50, JetsonTx2) => 30,
            (ImdbLstm, JetsonAgx) => 40,
            (ImdbLstm, JetsonTx2) => 20,
        };
        FlTask::new(model, dataset, b, e, n)
    }

    /// The network model being trained.
    pub fn model(&self) -> &NnModel {
        &self.model
    }

    /// The local dataset descriptor.
    pub fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    /// Minibatch size `B`.
    pub fn minibatch_size(&self) -> usize {
        self.minibatch_size
    }

    /// SGD epochs per round `E`.
    pub fn epochs(&self) -> usize {
        self.epochs
    }

    /// Number of local minibatches `N`.
    pub fn minibatches(&self) -> usize {
        self.minibatches
    }

    /// Jobs per round `W = E × N` (a *job* is one minibatch computation).
    pub fn jobs_per_round(&self) -> usize {
        self.epochs * self.minibatches
    }

    /// Number of local training samples `B × N`.
    pub fn local_samples(&self) -> usize {
        self.minibatch_size * self.minibatches
    }
}

impl std::fmt::Display for FlTask {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}-{} (B={}, E={}, N={})",
            self.dataset, self.model, self.minibatch_size, self.epochs, self.minibatches
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_presets() {
        // Exact values from Table 2 of the paper.
        let cases = [
            (TaskKind::Cifar10Vit, Testbed::JetsonAgx, 32, 5, 40),
            (TaskKind::Cifar10Vit, Testbed::JetsonTx2, 32, 5, 15),
            (TaskKind::ImagenetResnet50, Testbed::JetsonAgx, 8, 2, 90),
            (TaskKind::ImagenetResnet50, Testbed::JetsonTx2, 8, 2, 30),
            (TaskKind::ImdbLstm, Testbed::JetsonAgx, 8, 4, 40),
            (TaskKind::ImdbLstm, Testbed::JetsonTx2, 8, 4, 20),
        ];
        for (kind, bed, b, e, n) in cases {
            let t = FlTask::preset(kind, bed);
            assert_eq!(t.minibatch_size(), b, "{kind} on {bed}");
            assert_eq!(t.epochs(), e, "{kind} on {bed}");
            assert_eq!(t.minibatches(), n, "{kind} on {bed}");
            assert_eq!(t.jobs_per_round(), e * n, "{kind} on {bed}");
        }
    }

    #[test]
    fn paper_example_client() {
        // §3.1: "a client with 1k images, minibatch size 10, has N = 100".
        let t = FlTask::new(NnModel::vit(), Dataset::cifar10(), 10, 1, 100);
        assert_eq!(t.local_samples(), 1000);
    }

    #[test]
    #[should_panic(expected = "epochs must be > 0")]
    fn rejects_zero_epochs() {
        let _ = FlTask::new(NnModel::vit(), Dataset::cifar10(), 1, 0, 1);
    }

    #[test]
    fn display_mentions_everything() {
        let s = FlTask::preset(TaskKind::Cifar10Vit, Testbed::JetsonAgx).to_string();
        assert!(s.contains("CIFAR10"));
        assert!(s.contains("ViT"));
        assert!(s.contains("B=32"));
    }

    #[test]
    fn enumerations_cover_paper() {
        assert_eq!(TaskKind::all().len(), 3);
        assert_eq!(Testbed::all().len(), 2);
    }
}
