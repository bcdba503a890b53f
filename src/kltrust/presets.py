"""Published tuned hyperparameters for every (algorithm, task) pairing.

Six task columns (Fashion-MNIST CNN/ResNet-18, CIFAR-10 CNN/ResNet-34,
CIFAR-100 CNN/ResNet-34) by four algorithms. Consumed as constants; the
benchmark harness can seed a run config from any entry, and
`kltrust verify-hparams` cross-checks this table against a frozen copy.
"""

TASKS = (
    "fashion_mnist_cnn",
    "fashion_mnist_resnet18",
    "cifar10_cnn",
    "cifar10_resnet34",
    "cifar100_cnn",
    "cifar100_resnet34",
)

TUNED = {
    "trust_region": {
        "fashion_mnist_cnn": {
            "epsilon": 0.085675, "rho": 0.058657, "r": 2.816791,
            "q": 0.017393, "weight_decay": 0.000002,
        },
        "fashion_mnist_resnet18": {
            "epsilon": 0.085675, "rho": 0.058657, "r": 2.816791,
            "q": 0.017393, "weight_decay": 0.000002,
        },
        "cifar10_cnn": {
            "epsilon": 0.002787, "rho": 0.296786, "r": 1.219750,
            "q": 0.002455, "weight_decay": 0.000000,
        },
        "cifar10_resnet34": {
            "epsilon": 0.007133, "rho": 1.597354, "r": 9.328440,
            "q": 0.089381, "weight_decay": 0.000703,
        },
        "cifar100_cnn": {
            "epsilon": 0.002787, "rho": 0.296786, "r": 1.219750,
            "q": 0.002455, "weight_decay": 0.000000,
        },
        "cifar100_resnet34": {
            "epsilon": 0.007234, "rho": 1.676770, "r": 4.822032,
            "q": 0.009779, "weight_decay": 0.000000,
        },
    },
    "sgd": {
        "fashion_mnist_cnn": {
            "learning_rate": 0.071049, "momentum": 0.865730, "weight_decay": 0.000225,
        },
        "fashion_mnist_resnet18": {
            "learning_rate": 0.137031, "momentum": 0.854087, "weight_decay": 0.001963,
        },
        "cifar10_cnn": {
            "learning_rate": 0.017834, "momentum": 0.946762, "weight_decay": 0.000163,
        },
        "cifar10_resnet34": {
            "learning_rate": 0.056480, "momentum": 0.866487, "weight_decay": 0.001697,
        },
        "cifar100_cnn": {
            "learning_rate": 0.017834, "momentum": 0.946762, "weight_decay": 0.000163,
        },
        "cifar100_resnet34": {
            "learning_rate": 0.067994, "momentum": 0.867370, "weight_decay": 0.001800,
        },
    },
    "adam": {
        "fashion_mnist_cnn": {
            "learning_rate": 0.001012, "beta1": 0.945256, "beta2": 0.990342,
            "weight_decay": 0.000000,
        },
        "fashion_mnist_resnet18": {
            "learning_rate": 0.045115, "beta1": 0.907895, "beta2": 0.999999,
            "weight_decay": 0.000002,
        },
        "cifar10_cnn": {
            "learning_rate": 0.001129, "beta1": 0.851157, "beta2": 0.998940,
            "weight_decay": 0.001090,
        },
        "cifar10_resnet34": {
            "learning_rate": 0.006652, "beta1": 0.890313, "beta2": 0.999387,
            "weight_decay": 0.000447,
        },
        "cifar100_cnn": {
            "learning_rate": 0.001129, "beta1": 0.851157, "beta2": 0.998940,
            "weight_decay": 0.001090,
        },
        "cifar100_resnet34": {
            "learning_rate": 0.001612, "beta1": 0.864582, "beta2": 0.999953,
            "weight_decay": 0.001941,
        },
    },
    "adamw": {
        "fashion_mnist_cnn": {
            "learning_rate": 0.001004, "beta1": 0.922247, "beta2": 0.999945,
            "weight_decay": 0.000142,
        },
        "fashion_mnist_resnet18": {
            "learning_rate": 0.018744, "beta1": 0.862748, "beta2": 0.999999,
            "weight_decay": 0.000040,
        },
        "cifar10_cnn": {
            "learning_rate": 0.001129, "beta1": 0.851157, "beta2": 0.998940,
            "weight_decay": 0.001090,
        },
        "cifar10_resnet34": {
            "learning_rate": 0.006652, "beta1": 0.890313, "beta2": 0.999387,
            "weight_decay": 0.000447,
        },
        "cifar100_cnn": {
            "learning_rate": 0.001129, "beta1": 0.851157, "beta2": 0.998940,
            "weight_decay": 0.001090,
        },
        "cifar100_resnet34": {
            "learning_rate": 0.001245, "beta1": 0.858643, "beta2": 0.998802,
            "weight_decay": 0.001804,
        },
    },
}


def get_preset(algorithm: str, task: str) -> dict:
    try:
        return dict(TUNED[algorithm][task])
    except KeyError:
        raise ValueError(f"no preset for algorithm={algorithm!r}, task={task!r}") from None
