"""Evaluation metrics, aggregation rules, and interchange file IO."""

import random
import re

import pytest

from priorcase.evaluation import (
    evaluate_run,
    f1_at_k,
    format_report,
    load_qrels,
    load_run,
    precision_at_k,
    recall_at_k,
    reciprocal_rank,
    write_run,
)


class TestPrecision:
    def test_three_of_ten(self):
        ranked = [f"d{i}" for i in range(10)]
        assert precision_at_k(ranked, {"d0", "d4", "d9"}, 10) == pytest.approx(0.3)

    def test_empty_ranking(self):
        assert precision_at_k([], {"d1"}, 10) == 0.0

    def test_short_ranking_pads_with_non_relevant(self):
        ranked = ["a", "b", "c", "d", "e"]
        assert precision_at_k(ranked, set(ranked), 10) == pytest.approx(0.5)

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            precision_at_k(["a"], {"a"}, 0)


class TestRecall:
    def test_two_of_five(self):
        ranked = ["r1", "x", "r2", "y"]
        relevant = {"r1", "r2", "r3", "r4", "r5"}
        assert recall_at_k(ranked, relevant, 10) == pytest.approx(0.4)

    def test_all_found(self):
        assert recall_at_k(["a", "b"], {"a", "b"}, 5) == 1.0

    def test_none_found(self):
        assert recall_at_k(["x", "y"], {"a"}, 5) == 0.0

    def test_empty_relevant_set_rejected(self):
        with pytest.raises(ValueError):
            recall_at_k(["a"], set(), 5)


class TestF1:
    def test_hand_value(self):
        assert f1_at_k(0.5, 0.25) == pytest.approx(1 / 3)

    def test_equal_p_and_r(self):
        assert f1_at_k(0.7, 0.7) == pytest.approx(0.7)

    def test_zero_precision(self):
        assert f1_at_k(0.0, 0.9) == 0.0
        assert f1_at_k(0.0, 0.0) == 0.0


class TestReciprocalRank:
    def test_first_relevant_at_rank_four(self):
        assert reciprocal_rank(["a", "b", "c", "rel"], {"rel"}) == pytest.approx(0.25)

    def test_relevant_at_rank_one(self):
        assert reciprocal_rank(["rel", "b"], {"rel"}) == 1.0

    def test_no_relevant_retrieved(self):
        assert reciprocal_rank(["a", "b"], {"zzz"}) == 0.0


class TestEvaluateRun:
    def test_mrr_is_mean_of_reciprocal_ranks(self):
        run = {
            "q1": [("rel", 1.0), ("x", 0.5)],
            "q2": [("a", 1.0), ("b", 0.9), ("c", 0.8), ("rel", 0.7)],
        }
        qrels = {"q1": {"rel"}, "q2": {"rel"}}
        report = evaluate_run(run, qrels, ks=[1])
        assert report.mrr == pytest.approx(0.625)

    def test_single_query_aggregate_equals_per_query(self):
        run = {"q1": [("rel", 1.0), ("x", 0.5)]}
        report = evaluate_run(run, {"q1": {"rel"}}, ks=[1, 2])
        q = report.queries["q1"]
        assert report.mean_precision == q.precision
        assert report.mean_recall == q.recall
        assert report.mrr == q.reciprocal_rank

    def test_unknown_query_id_rejected(self):
        run = {"mystery": [("a", 1.0)]}
        with pytest.raises(ValueError, match="mystery"):
            evaluate_run(run, {"q1": {"a"}}, ks=[1])

    def test_empty_qrels_query_skipped_and_flagged(self):
        run = {"q1": [("rel", 1.0)], "q2": [("rel", 1.0)]}
        qrels = {"q1": {"rel"}, "q2": set()}
        report = evaluate_run(run, qrels, ks=[1])
        assert report.skipped == ["q2"]
        assert "q2" not in report.queries
        assert report.mean_precision[1] == 1.0  # only q1 aggregated

    def test_f1_modes_differ_when_queries_are_uneven(self):
        # q1: P@2 = 1/2, R@2 = 1/2, F1 = 1/2; q2: P@2 = 1/2, R@2 = 1, F1 = 2/3
        run = {
            "q1": [("r", 1.0), ("x", 0.9)],
            "q2": [("z", 1.0), ("y", 0.9)],
        }
        qrels = {"q1": {"r", "s"}, "q2": {"z"}}
        per_query = evaluate_run(run, qrels, ks=[2], f1_mode="per_query")
        pooled = evaluate_run(run, qrels, ks=[2], f1_mode="pooled")
        assert per_query.mean_f1[2] == pytest.approx(7 / 12)
        assert pooled.mean_f1[2] == pytest.approx(3 / 5)
        assert per_query.mean_f1[2] != pooled.mean_f1[2]

    def test_metric_counts_are_integers(self):
        rng = random.Random(17)
        for _ in range(30):
            docs = [f"d{i}" for i in range(rng.randint(1, 12))]
            ranking = [(d, 1.0 - 0.01 * i) for i, d in enumerate(docs)]
            relevant = set(rng.sample(docs, rng.randint(1, len(docs))))
            run = {"q": ranking}
            report = evaluate_run(run, {"q": relevant}, ks=[1, 3, 10])
            q = report.queries["q"]
            for k in (1, 3, 10):
                assert (q.precision[k] * k) == pytest.approx(round(q.precision[k] * k))
                hits = q.recall[k] * len(relevant)
                assert hits == pytest.approx(round(hits))
                assert q.f1[k] <= 2 * min(q.precision[k], q.recall[k]) + 1e-12

    def test_mrr_ignores_changes_below_first_relevant(self):
        base = {"q": [("x", 1.0), ("rel", 0.9), ("a", 0.8), ("b", 0.7)]}
        shuffled = {"q": [("x", 1.0), ("rel", 0.9), ("b", 0.8), ("a", 0.7)]}
        qrels = {"q": {"rel", "a"}}
        assert (
            evaluate_run(base, qrels, ks=[1]).mrr
            == evaluate_run(shuffled, qrels, ks=[1]).mrr
        )


class TestInterchangeFiles:
    def test_load_bundled_qrels(self, synthetic_dir):
        qrels = load_qrels(synthetic_dir / "qrels.txt")
        assert qrels["q1"] == {"case01", "case03", "case06"}
        assert qrels["q5"] == set()  # judged, but nothing relevant

    def test_qrels_malformed_line(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text("q1 0 d1\n", encoding="utf-8")
        with pytest.raises(ValueError, match=":1"):
            load_qrels(path)

    def test_qrels_bad_relevance_value(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text("q1 0 d1 2\n", encoding="utf-8")
        with pytest.raises(ValueError, match="0 or 1"):
            load_qrels(path)

    def test_run_round_trip(self, tmp_path):
        run = {
            "q2": [("a", 0.75), ("b", 0.5)],
            "q1": [("c", 1.25)],
        }
        path = tmp_path / "out.run"
        write_run(run, path, tag="bm25")
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "q1 Q0 c 1 1.250000 bm25"
        loaded = load_run(path)
        assert loaded["q2"] == [("a", 0.75), ("b", 0.5)]

    def test_run_rejects_gap_in_ranks(self, tmp_path):
        path = tmp_path / "bad.run"
        path.write_text("q1 Q0 a 1 1.0 t\nq1 Q0 b 3 0.5 t\n", encoding="utf-8")
        with pytest.raises(ValueError, match="contiguous"):
            load_run(path)

    def test_run_rejects_duplicate_docs(self, tmp_path):
        path = tmp_path / "bad.run"
        path.write_text("q1 Q0 a 1 1.0 t\nq1 Q0 a 2 0.5 t\n", encoding="utf-8")
        with pytest.raises(ValueError, match="more than once"):
            load_run(path)

    def test_run_malformed_line(self, tmp_path):
        path = tmp_path / "bad.run"
        path.write_text("q1 Q0 a 1 1.0\n", encoding="utf-8")
        with pytest.raises(ValueError, match=":1"):
            load_run(path)


    def test_run_malformed_rank_or_score_names_the_line(self, tmp_path):
        path = tmp_path / "bad.run"
        for bad in ("q1 Q0 b two 0.5 t", "q1 Q0 b 2 high t", "q1 Q0 b 2.0 0.5 t"):
            path.write_text(f"q1 Q0 a 1 1.0 t\n\n{bad}\n", encoding="utf-8")
            with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:3: malformed rank or score$"):
                load_run(path)

    def test_run_lines_out_of_order_are_sorted_by_rank(self, tmp_path):
        path = tmp_path / "shuffled.run"
        path.write_text(
            "q2 Q0 x 2 0.25 t\nq1 Q0 b 3 0.5 t\nq1 Q0 a 1 2.0 t\nq2 Q0 y 1 0.75 t\n"
            "q1 Q0 c 2 1.0 t\n",
            encoding="utf-8",
        )
        assert load_run(path) == {
            "q1": [("a", 2.0), ("c", 1.0), ("b", 0.5)],
            "q2": [("y", 0.75), ("x", 0.25)],
        }

    def test_run_blank_lines_and_crlf_load(self, tmp_path):
        path = tmp_path / "crlf.run"
        path.write_bytes(b"\r\nq1 Q0 a 1 1.5 t\r\n  \r\nq1 Q0 b 2 0.5 t\r\n\r\n")
        assert load_run(path) == {"q1": [("a", 1.5), ("b", 0.5)]}

    def test_run_empty_file_has_no_results(self, tmp_path):
        path = tmp_path / "empty.run"
        for text in ("", "\n  \n"):
            path.write_text(text, encoding="utf-8")
            with pytest.raises(ValueError, match=f"^no results found in {re.escape(str(path))}$"):
                load_run(path)

    def test_run_file_bytes_are_fixed(self, tmp_path):
        run = {"q10": [("b", 1 / 3), ("a", 0.0)], "q9": [("c", -2.5), ("d", 1e-7)], "q0": []}
        path = tmp_path / "out.run"
        write_run(run, path, tag="x")
        assert path.read_bytes() == (
            b"q10 Q0 b 1 0.333333 x\nq10 Q0 a 2 0.000000 x\n"
            b"q9 Q0 c 1 -2.500000 x\nq9 Q0 d 2 0.000000 x\n"
        )


def test_format_report_contains_machine_lines(synthetic_dir):
    run = {"q1": [("rel", 1.0), ("x", 0.5)]}
    report = evaluate_run(run, {"q1": {"rel"}}, ks=[1])
    text = format_report(report, per_query=True)
    assert "P@1\tall\t1.000000" in text
    assert "MRR\tall\t1.000000" in text
    assert "P@1\tq1\t1.000000" in text
