"""Unit tests for exposure levels and the Figure 6 IPM-entry mapping."""

import pytest

from repro.analysis.exposure import (
    ExposureLevel,
    ExposurePolicy,
    IpmEntryKind,
    ipm_entry_kind,
)
from repro.errors import AnalysisError


class TestLevels:
    def test_security_gradient_ordering(self):
        assert (
            ExposureLevel.BLIND
            < ExposureLevel.TEMPLATE
            < ExposureLevel.STMT
            < ExposureLevel.VIEW
        )

    def test_labels(self):
        assert ExposureLevel.STMT.label == "stmt"
        assert ExposureLevel.BLIND.label == "blind"


class TestIpmEntryKind:
    """The full Figure 6 matrix."""

    @pytest.mark.parametrize(
        "q",
        [
            ExposureLevel.BLIND,
            ExposureLevel.TEMPLATE,
            ExposureLevel.STMT,
            ExposureLevel.VIEW,
        ],
    )
    def test_blind_update_row(self, q):
        assert ipm_entry_kind(ExposureLevel.BLIND, q) is IpmEntryKind.ONE

    @pytest.mark.parametrize(
        "q,expected",
        [
            (ExposureLevel.BLIND, IpmEntryKind.ONE),
            (ExposureLevel.TEMPLATE, IpmEntryKind.A),
            (ExposureLevel.STMT, IpmEntryKind.A),
            (ExposureLevel.VIEW, IpmEntryKind.A),
        ],
    )
    def test_template_update_row(self, q, expected):
        assert ipm_entry_kind(ExposureLevel.TEMPLATE, q) is expected

    @pytest.mark.parametrize(
        "q,expected",
        [
            (ExposureLevel.BLIND, IpmEntryKind.ONE),
            (ExposureLevel.TEMPLATE, IpmEntryKind.A),
            (ExposureLevel.STMT, IpmEntryKind.B),
            (ExposureLevel.VIEW, IpmEntryKind.C),
        ],
    )
    def test_stmt_update_row(self, q, expected):
        assert ipm_entry_kind(ExposureLevel.STMT, q) is expected

    def test_view_level_updates_rejected(self):
        with pytest.raises(AnalysisError):
            ipm_entry_kind(ExposureLevel.VIEW, ExposureLevel.VIEW)


class TestPolicy:
    def test_maximum_exposure(self, toystore):
        policy = ExposurePolicy.maximum_exposure(toystore)
        assert policy.query_level("Q1") is ExposureLevel.VIEW
        assert policy.update_level("U1") is ExposureLevel.STMT
        assert policy.encrypted_result_count() == 0

    def test_full_encryption(self, toystore):
        policy = ExposurePolicy.full_encryption(toystore)
        assert policy.query_level("Q2") is ExposureLevel.BLIND
        assert policy.encrypted_result_count() == 3

    def test_uniform_caps_updates_at_stmt(self, toystore):
        policy = ExposurePolicy.uniform(toystore, ExposureLevel.VIEW)
        assert policy.query_level("Q1") is ExposureLevel.VIEW
        assert policy.update_level("U1") is ExposureLevel.STMT

    def test_with_query_level_copies(self, toystore):
        a = ExposurePolicy.maximum_exposure(toystore)
        b = a.with_query_level("Q1", ExposureLevel.BLIND)
        assert a.query_level("Q1") is ExposureLevel.VIEW
        assert b.query_level("Q1") is ExposureLevel.BLIND

    def test_view_level_update_rejected(self, toystore):
        policy = ExposurePolicy.maximum_exposure(toystore)
        with pytest.raises(AnalysisError):
            policy.with_update_level("U1", ExposureLevel.VIEW)

    def test_unknown_template_rejected(self, toystore):
        policy = ExposurePolicy.maximum_exposure(toystore)
        with pytest.raises(AnalysisError):
            policy.query_level("nope")

    def test_equality(self, toystore):
        assert ExposurePolicy.maximum_exposure(
            toystore
        ) == ExposurePolicy.maximum_exposure(toystore)
        assert ExposurePolicy.maximum_exposure(
            toystore
        ) != ExposurePolicy.full_encryption(toystore)
