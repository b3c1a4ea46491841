#include "src/obs/dashboard.h"

#include "src/common/json.h"

namespace emu::obs {
namespace {

void AppendHtmlEscaped(std::string& out, const std::string& text) {
  for (char c : text) {
    switch (c) {
      case '&':
        out += "&amp;";
        break;
      case '<':
        out += "&lt;";
        break;
      case '>':
        out += "&gt;";
        break;
      case '"':
        out += "&quot;";
        break;
      default:
        out += c;
    }
  }
}

void AppendJsString(std::string& out, const std::string& text) {
  out += '"';
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    // `</script>` inside a string literal would end the inline script block.
    if (c == '/') {
      out += '\\';
    }
    out += c;
  }
  out += '"';
}

// Inline renderer: reads the embedded DATA object, draws one SVG line chart
// per chart spec. Pure DOM + SVG, no external code.
constexpr const char* kScript = R"JS(
(function () {
  'use strict';
  var W = 860, H = 220, PADL = 64, PADR = 150, PADT = 16, PADB = 28;
  var COLORS = ['#2563eb', '#dc2626', '#059669', '#d97706', '#7c3aed', '#0891b2', '#be185d'];
  var byName = {};
  DATA.series.forEach(function (s) { byName[s.name] = s.points; });

  function toRate(points) {
    var out = [];
    for (var i = 1; i < points.length; i++) {
      var dt = points[i][0] - points[i - 1][0];
      if (dt <= 0) continue;
      var dv = points[i][1] - points[i - 1][1];
      out.push([points[i][0], dv * 1e12 / dt]); // per second (ts in picoseconds)
    }
    return out;
  }

  function fmt(v) {
    if (!isFinite(v)) return '-';
    if (Math.abs(v) >= 1e6) return (v / 1e6).toFixed(2) + 'M';
    if (Math.abs(v) >= 1e3) return (v / 1e3).toFixed(2) + 'k';
    return (Math.round(v * 100) / 100).toString();
  }

  function el(tag, attrs) {
    var node = document.createElementNS('http://www.w3.org/2000/svg', tag);
    for (var k in attrs) node.setAttribute(k, attrs[k]);
    return node;
  }

  function drawChart(container, spec) {
    var series = [];
    spec.metrics.forEach(function (name) {
      var pts = byName[name];
      if (!pts || pts.length === 0) return;
      series.push({ name: name, points: spec.rate ? toRate(pts) : pts });
    });
    series = series.filter(function (s) { return s.points.length > 0; });
    var h2 = document.createElement('h2');
    h2.textContent = spec.title + (spec.unit ? ' (' + spec.unit + ')' : '');
    container.appendChild(h2);
    if (series.length === 0) {
      var p = document.createElement('p');
      p.className = 'empty';
      p.textContent = 'no data points for: ' + spec.metrics.join(', ');
      container.appendChild(p);
      return;
    }
    var tmin = Infinity, tmax = -Infinity, vmin = Infinity, vmax = -Infinity;
    series.forEach(function (s) {
      s.points.forEach(function (p) {
        tmin = Math.min(tmin, p[0]); tmax = Math.max(tmax, p[0]);
        vmin = Math.min(vmin, p[1]); vmax = Math.max(vmax, p[1]);
      });
    });
    if (vmin === vmax) { vmin -= 1; vmax += 1; }
    if (tmin === tmax) { tmax += 1; }
    var svg = el('svg', { width: W, height: H, viewBox: '0 0 ' + W + ' ' + H });
    var x = function (t) { return PADL + (t - tmin) / (tmax - tmin) * (W - PADL - PADR); };
    var y = function (v) { return H - PADB - (v - vmin) / (vmax - vmin) * (H - PADT - PADB); };
    [0, 0.5, 1].forEach(function (f) {
      var vy = y(vmin + f * (vmax - vmin));
      svg.appendChild(el('line', { x1: PADL, y1: vy, x2: W - PADR, y2: vy, stroke: '#e5e7eb' }));
      var label = el('text', { x: PADL - 6, y: vy + 4, 'text-anchor': 'end', 'font-size': 11, fill: '#6b7280' });
      label.textContent = fmt(vmin + f * (vmax - vmin));
      svg.appendChild(label);
    });
    var t0 = el('text', { x: PADL, y: H - 8, 'font-size': 11, fill: '#6b7280' });
    t0.textContent = (tmin / 1e6).toFixed(0) + 'us';
    svg.appendChild(t0);
    var t1 = el('text', { x: W - PADR, y: H - 8, 'text-anchor': 'end', 'font-size': 11, fill: '#6b7280' });
    t1.textContent = (tmax / 1e6).toFixed(0) + 'us';
    svg.appendChild(t1);
    series.forEach(function (s, idx) {
      var d = s.points.map(function (p, i) {
        return (i === 0 ? 'M' : 'L') + x(p[0]).toFixed(1) + ' ' + y(p[1]).toFixed(1);
      }).join(' ');
      svg.appendChild(el('path', { d: d, fill: 'none', stroke: COLORS[idx % COLORS.length], 'stroke-width': 1.5 }));
      var ly = PADT + 14 * idx + 10;
      svg.appendChild(el('line', { x1: W - PADR + 8, y1: ly - 4, x2: W - PADR + 24, y2: ly - 4, stroke: COLORS[idx % COLORS.length], 'stroke-width': 2 }));
      var legend = el('text', { x: W - PADR + 28, y: ly, 'font-size': 11, fill: '#374151' });
      legend.textContent = s.name;
      svg.appendChild(legend);
    });
    container.appendChild(svg);
  }

  var root = document.getElementById('charts');
  CHARTS.forEach(function (spec) { drawChart(root, spec); });
  var note = document.getElementById('sampling');
  note.textContent = 'series: ' + DATA.series.length + ', stride 1:' + DATA.stride +
    ', rows kept ' + (DATA.offered - DATA.dropped) + '/' + DATA.offered;
})();
)JS";

}  // namespace

std::string RenderSoakDashboardHtml(const DashboardOptions& options,
                                    const TimeSeriesRecorder& recorder,
                                    const std::vector<ChartSpec>& charts, const SloReport& slo) {
  std::string out;
  out +=
      "<!doctype html>\n<html><head><meta charset=\"utf-8\">\n<title>";
  AppendHtmlEscaped(out, options.title);
  out += "</title>\n<style>\n";
  out +=
      "body{font-family:system-ui,sans-serif;margin:24px;color:#111827;max-width:960px}\n"
      "h1{font-size:20px;margin-bottom:2px}\n"
      ".sub{color:#6b7280;margin-top:0}\n"
      "h2{font-size:14px;margin:18px 0 4px}\n"
      "table{border-collapse:collapse;font-size:13px}\n"
      "td,th{border:1px solid #e5e7eb;padding:4px 10px;text-align:left}\n"
      ".pass{color:#059669;font-weight:600}\n"
      ".fail{color:#dc2626;font-weight:600}\n"
      ".empty{color:#9ca3af;font-size:12px}\n"
      "#sampling{color:#9ca3af;font-size:11px;margin-top:16px}\n";
  out += "</style></head>\n<body>\n<h1>";
  AppendHtmlEscaped(out, options.title);
  out += "</h1>\n<p class=\"sub\">";
  AppendHtmlEscaped(out, options.subtitle);
  out += "</p>\n";
  if (!slo.checks.empty()) {
    out += "<h2>SLO gates</h2>\n<table><tr><th>clause</th><th>observed</th><th>result</th></tr>\n";
    for (const SloCheck& check : slo.checks) {
      out += "<tr><td>";
      AppendHtmlEscaped(out, check.clause.text);
      out += "</td><td>";
      if (check.missing) {
        out += "metric missing";
      } else {
        json::AppendNumber(out, check.observed);
      }
      out += check.ok ? "</td><td class=\"pass\">PASS" : "</td><td class=\"fail\">FAIL";
      out += "</td></tr>\n";
    }
    out += "</table>\n";
  }
  out += "<div id=\"charts\"></div>\n<p id=\"sampling\"></p>\n<script>\nconst DATA = ";
  out += recorder.SeriesJson();
  out += ";\nconst CHARTS = [";
  for (usize i = 0; i < charts.size(); ++i) {
    const ChartSpec& spec = charts[i];
    if (i > 0) {
      out += ',';
    }
    out += "{title:";
    AppendJsString(out, spec.title);
    out += ",unit:";
    AppendJsString(out, spec.unit);
    out += ",rate:";
    out += spec.rate ? "true" : "false";
    out += ",metrics:[";
    for (usize m = 0; m < spec.metrics.size(); ++m) {
      if (m > 0) {
        out += ',';
      }
      AppendJsString(out, spec.metrics[m]);
    }
    out += "]}";
  }
  out += "];\n";
  out += kScript;
  out += "</script>\n</body></html>\n";
  return out;
}

}  // namespace emu::obs
