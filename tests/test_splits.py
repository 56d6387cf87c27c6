import json

import numpy as np
import pytest

from seiznet.data.splits import FoldSpec, SplitPlan, split_patients
from seiznet.errors import SplitError

IDS40 = [f"p{i:03d}" for i in range(40)]


def test_sizes_forty_patients():
    plan = split_patients(IDS40, seed=0)
    assert len(plan.test_patients) == 8
    assert len(plan.train_patients) == 32
    assert len(plan.folds) == 5
    fold_sizes = sorted(len(f.test) for f in plan.folds)
    assert fold_sizes == [6, 6, 6, 7, 7]
    for fold in plan.folds:
        assert len(fold.val) >= 1
        assert len(fold.test) + len(fold.val) + len(fold.train) == 32


def test_same_seed_reproduces():
    a = split_patients(IDS40, seed=11)
    b = split_patients(IDS40, seed=11)
    assert a == b


def test_input_order_does_not_matter():
    shuffled = list(IDS40)
    np.random.default_rng(5).shuffle(shuffled)
    assert split_patients(shuffled, seed=11) == split_patients(IDS40, seed=11)


def test_different_seeds_differ():
    assert split_patients(IDS40, seed=1) != split_patients(IDS40, seed=2)


def test_patient_never_on_both_sides():
    for seed in range(10):
        plan = split_patients(IDS40, seed=seed)
        plan.validate()
        test = set(plan.test_patients)
        for fold in plan.folds:
            assert not test & set(fold.test)
            assert not test & set(fold.val)
            assert not test & set(fold.train)


def test_every_train_patient_tested_exactly_once():
    plan = split_patients(IDS40, seed=3)
    seen = [p for fold in plan.folds for p in fold.test]
    assert sorted(seen) == sorted(plan.train_patients)
    assert len(seen) == len(set(seen))


def test_json_round_trip():
    plan = split_patients(IDS40, seed=9)
    again = SplitPlan.from_dict(json.loads(json.dumps(plan.to_dict())))
    assert again == plan


def test_validate_catches_overlap():
    plan = split_patients(IDS40, seed=0)
    leaked = plan.folds[0].test[0]
    bad = SplitPlan(
        seed=plan.seed,
        test_patients=plan.test_patients + (leaked,),
        folds=plan.folds,
    )
    with pytest.raises(SplitError, match="overlap"):
        bad.validate()


def test_validate_catches_incomplete_fold():
    plan = split_patients(IDS40, seed=0)
    fold = plan.folds[0]
    clipped = FoldSpec(test=fold.test, val=fold.val, train=fold.train[:-1])
    bad = SplitPlan(
        seed=plan.seed,
        test_patients=plan.test_patients,
        folds=(clipped,) + plan.folds[1:],
    )
    with pytest.raises(SplitError, match="cover"):
        bad.validate()


def test_duplicates_rejected():
    with pytest.raises(SplitError, match="duplicate"):
        split_patients(IDS40 + [IDS40[0]], seed=0)


def test_too_few_patients_rejected():
    with pytest.raises(SplitError, match="at least 10"):
        split_patients(IDS40[:9], seed=0)


def test_minimum_cohort_still_splits():
    plan = split_patients(IDS40[:10], seed=4)
    plan.validate()
    assert len(plan.test_patients) == 2
    assert len(plan.train_patients) == 8
