"""Deterministic SVG bar charts of quantum states, drawn straight from the amplitudes and never read back.

Bar height is the amplitude magnitude (not the probability) and the fill hue
is the amplitude's phase mapped onto the color wheel, so real positive
amplitudes come out red (0 degrees) and real negative ones blue-cyan
(180 degrees).  Output is byte-stable: fixed element order and floats
printed with 6 decimals.
"""

from __future__ import annotations

import math

from .sim import RegisterLayout, StateVector

NOISE = 1e-12  # amplitude parts this small are round-off, not phase


def hue_of(amplitude: complex) -> float:
    """Phase of the amplitude mapped to [0, 360) degrees.

    An imaginary part within ``NOISE`` counts as zero and an amplitude of
    magnitude within ``NOISE`` gets hue 0, so round-off never sets a hue.
    """
    if abs(amplitude) <= NOISE:
        return 0.0
    imag = amplitude.imag if abs(amplitude.imag) > NOISE else 0.0
    angle = math.atan2(imag, amplitude.real) % (2.0 * math.pi)
    return (angle / (2.0 * math.pi)) * 360.0 % 360.0


def _fmt(value: float) -> str:
    return f"{value:.6f}"


def render_state_svg(state: StateVector, layout: RegisterLayout | None = None) -> str:
    """One bar per basis state, labeled by index or by key:value pair, 14 px a bar and 320 px high."""
    amplitudes = state.amplitudes.tolist()
    count = len(amplitudes)
    labels = [str(i) if layout is None else "%d:%d" % layout.split_index(i) for i in range(count)]
    width, height = max(360, 14 * count + 80), 320
    left, right, top, bottom = 44.0, 16.0, 34.0, 42.0
    plot_w = width - left - right
    plot_h = height - top - bottom
    slot = plot_w / count
    bar_w = slot * 0.8

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
    ]

    # frame and unit line
    base_y = top + plot_h
    parts.append(
        f'<line x1="{_fmt(left)}" y1="{_fmt(base_y)}" x2="{_fmt(left + plot_w)}" '
        f'y2="{_fmt(base_y)}" stroke="black" stroke-width="1"/>'
    )
    parts.append(
        f'<line x1="{_fmt(left)}" y1="{_fmt(top)}" x2="{_fmt(left + plot_w)}" y2="{_fmt(top)}" '
        f'stroke="#cccccc" stroke-width="1" stroke-dasharray="3,3"/>'
    )
    parts.append(
        f'<text x="{_fmt(left - 6)}" y="{_fmt(top + 4)}" font-size="10" text-anchor="end">1.0</text>'
    )
    parts.append(
        f'<text x="{_fmt(left - 6)}" y="{_fmt(base_y + 4)}" font-size="10" text-anchor="end">0.0</text>'
    )

    for i, (amplitude, label) in enumerate(zip(amplitudes, labels)):
        h = min(abs(amplitude), 1.0) * plot_h
        x = left + i * slot + (slot - bar_w) / 2.0
        y = base_y - h
        fill = f"hsl({_fmt(hue_of(amplitude))}, 85%, 50%)"
        parts.append(
            f'<rect class="bar" x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(bar_w)}" '
            f'height="{_fmt(h)}" fill="{fill}"><title>{label}</title></rect>'
        )

    label_step = max(1, count // 32)
    for i in range(0, count, label_step):
        x = left + i * slot + slot / 2.0
        parts.append(
            f'<text x="{_fmt(x)}" y="{_fmt(base_y + 14)}" font-size="9" '
            f'text-anchor="middle">{labels[i]}</text>'
        )

    # color-wheel legend: hue swatches across the top
    swatches = 24
    sw = 7.0
    legend_x = left
    legend_y = 8.0
    for i in range(swatches):
        hue = 360.0 * i / swatches
        parts.append(
            f'<rect class="legend" x="{_fmt(legend_x + i * sw)}" y="{_fmt(legend_y)}" '
            f'width="{_fmt(sw)}" height="10.000000" fill="hsl({_fmt(hue)}, 85%, 50%)"/>'
        )
    parts.append(
        f'<text x="{_fmt(legend_x + swatches * sw + 6)}" y="{_fmt(legend_y + 9)}" '
        f'font-size="9">amplitude phase 0&#176;&#8594;360&#176;</text>'
    )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"

