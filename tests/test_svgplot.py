import numpy as np
import pytest

from wann.svgplot import Line, Points, write_chart


def test_writes_a_chart_of_finite_series(tmp_path):
    path = tmp_path / "plot.svg"
    write_chart(path, lines=[Line("fit", np.arange(3.0), np.ones(3),
                                  band=np.full(3, 0.1))],
                points=[Points("rows", np.arange(2.0), np.zeros(2))])
    text = path.read_text(encoding="utf-8")
    assert text.startswith("<svg") and "fit" in text and "rows" in text


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("kind,field", [
    ("line", "xs"), ("line", "ys"), ("line", "band"),
    ("points", "xs"), ("points", "ys")])
def test_non_finite_series_is_refused_by_label(tmp_path, kind, field, bad):
    good = np.arange(3.0)
    values = {"xs": good, "ys": good, "band": good}
    values[field] = np.array([0.0, bad, 2.0])
    line = Line("good line", good, good)
    if kind == "points":
        chart = {"lines": [line],
                 "points": [Points("bad series", values["xs"],
                                   values["ys"])]}
    else:
        chart = {"lines": [line, Line("bad series", **values)]}
    path = tmp_path / "plot.svg"
    with pytest.raises(ValueError, match="'bad series' has a non-finite"):
        write_chart(path, **chart)
    assert not path.exists()
