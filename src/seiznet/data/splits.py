"""Patient-level train/test and cross-validation splits.

Splitting happens on patient identifiers only, never on records or
segments, so no patient's data can appear on both sides of any
boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from seiznet.errors import SplitError

MIN_PATIENTS = 10


@dataclass(frozen=True)
class FoldSpec:
    """One cross-validation fold over the training patients."""

    test: tuple[str, ...]
    val: tuple[str, ...]
    train: tuple[str, ...]


@dataclass(frozen=True)
class SplitPlan:
    """Held-out test patients plus a k-fold plan over the rest."""

    seed: int
    test_patients: tuple[str, ...]
    folds: tuple[FoldSpec, ...]

    @property
    def train_patients(self) -> tuple[str, ...]:
        """All non-test patients; each sits in exactly one fold's test."""
        return tuple(p for fold in self.folds for p in fold.test)

    def validate(self) -> None:
        test = set(self.test_patients)
        train = set(self.train_patients)
        if test & train:
            raise SplitError("test and train patients overlap")
        if len(self.train_patients) != len(train):
            raise SplitError("a patient appears in more than one fold test set")
        for i, fold in enumerate(self.folds):
            ft, fv, ftr = set(fold.test), set(fold.val), set(fold.train)
            if not fv:
                raise SplitError(f"fold {i} has an empty validation set")
            if fv & ft or ftr & ft or fv & ftr:
                raise SplitError(f"fold {i} test/val/train sets overlap")
            if fv | ftr | ft != train:
                raise SplitError(f"fold {i} does not cover the training patients")

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "test_patients": list(self.test_patients),
            "folds": [
                {"test": list(f.test), "val": list(f.val), "train": list(f.train)}
                for f in self.folds
            ],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SplitPlan":
        plan = cls(
            seed=int(payload["seed"]),
            test_patients=tuple(payload["test_patients"]),
            folds=tuple(
                FoldSpec(tuple(f["test"]), tuple(f["val"]), tuple(f["train"]))
                for f in payload["folds"]
            ),
        )
        plan.validate()
        return plan


def split_patients(
    patient_ids,
    seed: int,
    test_fraction: float = 0.2,
    n_folds: int = 5,
    val_fraction: float = 0.1,
) -> SplitPlan:
    """Draw a seeded patient split: held-out test set plus CV folds.

    test_fraction of the patients (rounded) are held out.  The rest
    are dealt into n_folds nearly equal fold test sets; within each
    fold, val_fraction of the remaining training patients (at least
    one) become that fold's validation set.
    """
    ids = sorted(patient_ids)
    if len(set(ids)) != len(ids):
        raise SplitError("duplicate patient identifiers")
    if len(ids) < MIN_PATIENTS:
        raise SplitError(f"need at least {MIN_PATIENTS} patients, got {len(ids)}")
    rng = np.random.default_rng(seed)
    order = [ids[i] for i in rng.permutation(len(ids))]
    n_test = round(test_fraction * len(ids))
    test = tuple(order[:n_test])
    train = order[n_test:]
    if len(train) < n_folds:
        raise SplitError(
            f"{len(train)} training patients cannot fill {n_folds} folds"
        )
    folds = []
    for chunk in np.array_split(np.arange(len(train)), n_folds):
        fold_test = tuple(train[i] for i in chunk)
        rest = [p for p in train if p not in fold_test]
        n_val = max(1, round(val_fraction * len(rest)))
        val_idx = set(rng.choice(len(rest), size=n_val, replace=False).tolist())
        val = tuple(p for i, p in enumerate(rest) if i in val_idx)
        fold_train = tuple(p for i, p in enumerate(rest) if i not in val_idx)
        folds.append(FoldSpec(test=fold_test, val=val, train=fold_train))
    plan = SplitPlan(seed=seed, test_patients=test, folds=tuple(folds))
    plan.validate()
    return plan
